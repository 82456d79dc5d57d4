#include "tact/tact_self.hh"

#include <algorithm>

#include "common/bitutil.hh"

namespace catchsim
{

TactSelf::TactSelf(const TactConfig &cfg, StrideFn stride, IssueFn issue)
    : cfg_(cfg), stride_(std::move(stride)), issue_(std::move(issue))
{
}

void
TactSelf::onCriticalLoad(Addr pc, Addr addr, Cycle now)
{
    int64_t stride = 0;
    if (!stride_(pc, &stride))
        return;

    TargetState &st = targets_[pc];
    if (st.haveLast) {
        int64_t observed = addrDelta(addr, st.lastAddr);
        if (observed == stride) {
            if (++st.currentRun >= cfg_.safeLengthCap) {
                // Wraparound: a long, healthy run; grow the safe length.
                st.currentRun = 0;
                st.safeLength =
                    std::min(cfg_.safeLengthCap, st.safeLength + 1);
                st.safeConf.increment();
            } else if (st.currentRun >= st.safeLength) {
                st.safeConf.increment();
            }
        } else {
            // The run ended; shrink toward the observed run length.
            if (st.currentRun < st.safeLength) {
                st.safeLength = std::max(1u, st.currentRun);
                st.safeConf.decrement();
            } else {
                st.safeConf.increment();
            }
            st.currentRun = 0;
        }
    }
    st.lastAddr = addr;
    st.haveLast = true;

    if (!st.safeConf.saturated())
        return;
    // Remaining safe headroom bounds how deep we dare prefetch.
    uint32_t headroom = st.safeLength > st.currentRun
                            ? st.safeLength - st.currentRun
                            : 0;
    uint32_t distance = std::min(cfg_.deepMaxDistance, headroom);
    if (distance <= 1)
        return; // distance 1 is already covered by the baseline stride pf
    ++issued_;
    issue_(addrStride(addr, stride, distance), now);
}

template <typename IO, typename Self>
void
TactSelf::warmFields(IO &io, Self &s)
{
    io.tag(stateTag("TSLF"));
    io.sortedMap(s.targets_, [&io](auto &st) {
        io.u64(st.lastAddr);
        io.boolean(st.haveLast);
        io.u32(st.currentRun);
        io.u32(st.safeLength);
        io.u32(st.safeConf);
    });
    io.u64(s.issued_);
}

void
TactSelf::saveWarmState(StateSink &sink) const
{
    warmFields(sink, *this);
}

bool
TactSelf::loadWarmState(StateSource &src)
{
    warmFields(src, *this);
    return src.ok();
}

} // namespace catchsim
