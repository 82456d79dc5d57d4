#include "tact/tact_cross.hh"

#include <algorithm>

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

namespace
{

template <typename Map>
std::vector<Addr>
sortedKeys(const Map &m)
{
    std::vector<Addr> keys;
    keys.reserve(m.size());
    for (const auto &kv : m)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

void
TactCross::saveWarmState(StateSink &sink) const
{
    sink.tag(stateTag("TCRS"));
    triggerCache_.saveWarmState(sink);

    sink.u64(targets_.size());
    for (Addr pc : sortedKeys(targets_)) {
        const TargetState &st = targets_.at(pc);
        sink.u64(pc);
        sink.u64(st.triggerPc);
        sink.boolean(st.haveTrigger);
        sink.u32(st.candidateIdx);
        sink.u32(st.wraps);
        sink.u32(st.instances);
        sink.i64(st.lastDelta);
        sink.u32(st.deltaConf.value());
        sink.boolean(st.learned);
        sink.i64(st.delta);
        sink.boolean(st.exhausted);
    }

    sink.u64(triggerLastAddr_.size());
    for (Addr pc : sortedKeys(triggerLastAddr_)) {
        sink.u64(pc);
        sink.u64(triggerLastAddr_.at(pc));
    }

    sink.u64(firing_.size());
    for (Addr pc : sortedKeys(firing_)) {
        const auto &pcs = firing_.at(pc);
        sink.u64(pc);
        sink.u64(pcs.size());
        for (Addr t : pcs)
            sink.u64(t);
    }

    sink.u64(issued_);
}

bool
TactCross::loadWarmState(StateSource &src)
{
    if (!src.expect(stateTag("TCRS")) ||
        !triggerCache_.loadWarmState(src))
        return false;

    targets_.clear();
    uint64_t n = src.u64();
    if (!src.fits(n * 47))
        return false;
    for (uint64_t i = 0; i < n; ++i) {
        Addr pc = src.u64();
        TargetState &st = targets_[pc];
        st.triggerPc = src.u64();
        st.haveTrigger = src.boolean();
        st.candidateIdx = src.u32();
        st.wraps = src.u32();
        st.instances = src.u32();
        st.lastDelta = src.i64();
        st.deltaConf.reset(src.u32());
        st.learned = src.boolean();
        st.delta = src.i64();
        st.exhausted = src.boolean();
    }

    triggerLastAddr_.clear();
    n = src.u64();
    if (!src.fits(n * 16))
        return false;
    for (uint64_t i = 0; i < n; ++i) {
        Addr pc = src.u64();
        triggerLastAddr_[pc] = src.u64();
    }

    firing_.clear();
    n = src.u64();
    if (!src.fits(n * 16))
        return false;
    for (uint64_t i = 0; i < n; ++i) {
        Addr pc = src.u64();
        uint64_t count = src.u64();
        if (!src.fits(count * 8))
            return false;
        auto &pcs = firing_[pc];
        pcs.reserve(count);
        for (uint64_t j = 0; j < count; ++j)
            pcs.push_back(src.u64());
    }

    issued_ = src.u64();
    return src.ok();
}

} // namespace catchsim
