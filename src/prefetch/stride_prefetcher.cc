#include "prefetch/stride_prefetcher.hh"

#include "common/bitutil.hh"

namespace catchsim
{

StridePrefetcher::StridePrefetcher(uint32_t entries) : table_(entries) {}

uint32_t
StridePrefetcher::indexOf(Addr pc) const
{
    return static_cast<uint32_t>(mix64(pc) % table_.size());
}

std::optional<Addr>
StridePrefetcher::observe(Addr pc, Addr addr)
{
    Entry &e = table_[indexOf(pc)];
    if (!e.valid || e.pc != pc) {
        e = Entry{};
        e.pc = pc;
        e.valid = true;
        e.lastAddr = addr;
        return std::nullopt;
    }

    int64_t stride = addrDelta(addr, e.lastAddr);
    e.lastAddr = addr;
    if (stride == 0)
        return std::nullopt;
    if (stride == e.stride) {
        e.conf.increment();
    } else {
        if (e.conf.decrement() == 0)
            e.stride = stride;
        return std::nullopt;
    }
    if (!e.conf.saturated())
        return std::nullopt;
    ++issued_;
    return addrOffset(addr, e.stride);
}

bool
StridePrefetcher::stableStride(Addr pc, int64_t *stride_out) const
{
    const Entry &e = table_[indexOf(pc)];
    if (!e.valid || e.pc != pc || !e.conf.saturated() || e.stride == 0)
        return false;
    *stride_out = e.stride;
    return true;
}

template <typename IO, typename Self>
void
StridePrefetcher::warmFields(IO &io, Self &s)
{
    io.tag(stateTag("STRD"));
    io.match(s.table_.size());
    for (auto &e : s.table_) {
        io.u64(e.pc);
        io.boolean(e.valid);
        io.u64(e.lastAddr);
        io.i64(e.stride);
        io.u32(e.conf);
    }
    io.u64(s.issued_);
}

void
StridePrefetcher::saveWarmState(StateSink &sink) const
{
    warmFields(sink, *this);
}

bool
StridePrefetcher::loadWarmState(StateSource &src)
{
    warmFields(src, *this);
    return src.ok();
}

} // namespace catchsim
