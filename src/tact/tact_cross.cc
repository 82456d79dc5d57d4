#include "tact/tact_cross.hh"

#include "common/bitutil.hh"

namespace catchsim
{

TactCross::TactCross(const TactConfig &cfg, IssueFn issue)
    : cfg_(cfg), issue_(std::move(issue)), triggerCache_(cfg)
{
}

void
TactCross::dropTarget(Addr pc)
{
    auto it = targets_.find(pc);
    if (it == targets_.end())
        return;
    if (it->second.haveTrigger) {
        auto fit = firing_.find(it->second.triggerPc);
        if (fit != firing_.end()) {
            auto &v = fit->second;
            v.erase(std::remove(v.begin(), v.end(), pc), v.end());
        }
    }
    targets_.erase(it);
}

void
TactCross::train(TargetState &st, Addr target_pc, Addr addr)
{
    if (st.learned || st.exhausted)
        return;

    if (!st.haveTrigger) {
        auto cands = triggerCache_.candidates(addr);
        if (st.candidateIdx >= cands.size()) {
            st.candidateIdx = 0;
            if (++st.wraps > cfg_.crossCandidateWraps) {
                st.exhausted = true;
                return;
            }
        }
        if (cands.empty())
            return;
        Addr cand = cands[st.candidateIdx];
        if (cand == target_pc) {
            // Self associations belong to TACT-Self; skip.
            ++st.candidateIdx;
            return;
        }
        st.triggerPc = cand;
        st.haveTrigger = true;
        st.instances = 0;
        st.deltaConf.reset();
        // Learning-table churn: one entry per candidate trigger PC,
        // bounded by the static PC set, not per-cycle.
        // catch-analyze: allow(step-alloc)
        triggerLastAddr_.emplace(cand, 0);
        return;
    }

    auto lit = triggerLastAddr_.find(st.triggerPc);
    if (lit == triggerLastAddr_.end() || lit->second == 0)
        return;

    ++st.instances;
    int64_t delta = addrDelta(addr, lit->second);
    // Cross deltas are expected to stay within a 4 KB page (the paper
    // observes >85% do); larger deltas never train.
    if (delta > -static_cast<int64_t>(kPageBytes) &&
        delta < static_cast<int64_t>(kPageBytes) && delta != 0 &&
        delta == st.lastDelta) {
        if (st.deltaConf.increment() >= st.deltaConf.max()) {
            st.learned = true;
            st.delta = delta;
            // One entry per learned (trigger, target) association;
            // learning stops once confirmed, so growth is bounded.
            // catch-analyze: allow(step-alloc)
            firing_[st.triggerPc].push_back(target_pc);
            return;
        }
    } else {
        st.lastDelta = delta;
        st.deltaConf.reset();
    }

    if (st.instances >= cfg_.crossTrainInstances) {
        // This candidate failed to show a stable delta; try the next.
        st.haveTrigger = false;
        ++st.candidateIdx;
    }
}

void
TactCross::onLoad(Addr pc, Addr addr, Cycle now, bool is_critical_target)
{
    triggerCache_.onLoad(pc, addr);

    // Trigger side: record the address and fire learned targets.
    auto lit = triggerLastAddr_.find(pc);
    if (lit != triggerLastAddr_.end())
        lit->second = addr;
    auto fit = firing_.find(pc);
    if (fit != firing_.end()) {
        for (Addr target_pc : fit->second) {
            auto tit = targets_.find(target_pc);
            if (tit == targets_.end() || !tit->second.learned)
                continue;
            ++issued_;
            issue_(addrOffset(addr, tit->second.delta), now);
        }
    }

    // Target side: train.
    if (is_critical_target)
        train(targets_[pc], pc, addr);
}

template <typename IO, typename Self>
void
TactCross::warmFields(IO &io, Self &s)
{
    io.tag(stateTag("TCRS"));
    io.section(s.triggerCache_);
    io.sortedMap(s.targets_, [&io](auto &st) {
        io.u64(st.triggerPc);
        io.boolean(st.haveTrigger);
        io.u32(st.candidateIdx);
        io.u32(st.wraps);
        io.u32(st.instances);
        io.i64(st.lastDelta);
        io.u32(st.deltaConf);
        io.boolean(st.learned);
        io.i64(st.delta);
        io.boolean(st.exhausted);
    });
    io.sortedMap(s.triggerLastAddr_, [&io](auto &addr) { io.u64(addr); });
    io.sortedMap(s.firing_, [&io](auto &pcs) {
        io.list(pcs, [&io](auto &pc) { io.u64(pc); });
    });
    io.u64(s.issued_);
}

void
TactCross::saveWarmState(StateSink &sink) const
{
    warmFields(sink, *this);
}

bool
TactCross::loadWarmState(StateSource &src)
{
    warmFields(src, *this);
    return src.ok();
}

} // namespace catchsim
