#include "tact/tact_feeder.hh"

#include <algorithm>

#include "common/bitutil.hh"

namespace catchsim
{

constexpr int64_t TactFeeder::kScales[];

TactFeeder::TactFeeder(const TactConfig &cfg, uint32_t num_arch_regs,
                       StrideFn stride, IssueFn issue, ProbeFn probe,
                       ReadMemFn read_mem)
    : cfg_(cfg), stride_(std::move(stride)), issue_(std::move(issue)),
      probe_(std::move(probe)), readMem_(std::move(read_mem)),
      regLastLoadPc_(num_arch_regs, 0), regLastLoadSeq_(num_arch_regs, 0)
{
}

void
TactFeeder::onRetire(const MicroOp &op)
{
    ++seq_;
    if (op.dst < 0)
        return;
    if (op.isLoad()) {
        // A load directly stamps its PC into its destination register.
        regLastLoadPc_[op.dst] = op.pc;
        regLastLoadSeq_[op.dst] = seq_;
        return;
    }
    // Non-loads propagate the youngest load PC across their sources.
    Addr youngest_pc = 0;
    SeqNum youngest_seq = 0;
    for (int8_t src : op.src) {
        if (src < 0)
            continue;
        if (regLastLoadSeq_[src] > youngest_seq) {
            youngest_seq = regLastLoadSeq_[src];
            youngest_pc = regLastLoadPc_[src];
        }
    }
    regLastLoadPc_[op.dst] = youngest_pc;
    regLastLoadSeq_[op.dst] = youngest_seq;
}

void
TactFeeder::dropTarget(Addr pc)
{
    auto it = targets_.find(pc);
    if (it == targets_.end())
        return;
    if (it->second.feederConfirmed) {
        auto fit = feeders_.find(it->second.candidateFeeder);
        if (fit != feeders_.end()) {
            auto &v = fit->second.targets;
            v.erase(std::remove(v.begin(), v.end(), pc), v.end());
            if (v.empty())
                feeders_.erase(fit);
        }
    }
    targets_.erase(it);
}

void
TactFeeder::learnRelation(TargetState &st, uint64_t feeder_value,
                          Addr target_addr)
{
    if (st.learned || st.exhausted)
        return;
    int64_t scale = kScales[st.scaleIdx];
    int64_t base = addrDelta(target_addr, addrScaled(scale, feeder_value, 0));
    if (st.haveBase && base == st.lastBase) {
        if (st.baseConf.increment() >= st.baseConf.max()) {
            st.learned = true;
            st.scale = scale;
            st.base = base;
            return;
        }
    } else {
        st.lastBase = base;
        st.haveBase = true;
        st.baseConf.reset();
    }
    if (++st.triesOnScale >= kTriesPerScale) {
        st.triesOnScale = 0;
        st.haveBase = false;
        st.scaleIdx = (st.scaleIdx + 1) % kNumScales;
        if (st.scaleIdx == 0 && ++st.scaleRounds >= 2)
            st.exhausted = true;
    }
}

void
TactFeeder::onCriticalLoad(const MicroOp &op, Cycle now)
{
    (void)now;
    TargetState &st = targets_[op.pc];
    if (st.exhausted)
        return;

    // Identify the feeder: youngest load PC among the source registers.
    Addr feeder_pc = 0;
    SeqNum feeder_seq = 0;
    for (int8_t src : op.src) {
        if (src < 0)
            continue;
        if (regLastLoadSeq_[src] > feeder_seq) {
            feeder_seq = regLastLoadSeq_[src];
            feeder_pc = regLastLoadPc_[src];
        }
    }
    if (feeder_pc == 0)
        return;
    if (feeder_pc == op.pc) {
        // Self-feeding chase (p = *p): no runahead possible; the paper
        // notes these cannot be covered by TACT-Feeder.
        st.exhausted = true;
        return;
    }

    if (!st.feederConfirmed) {
        if (st.candidateFeeder == feeder_pc) {
            if (st.feederConf.increment() >= st.feederConf.max()) {
                st.feederConfirmed = true;
                if (feeders_.size() < 32 ||
                    feeders_.contains(feeder_pc)) {
                    // Feeder table is capped at 32 entries (above).
                    // catch-analyze: allow(step-alloc)
                    feeders_[feeder_pc].targets.push_back(op.pc);
                } else {
                    st.exhausted = true; // feeder table full
                }
            }
        } else {
            st.candidateFeeder = feeder_pc;
            st.feederConf.reset();
        }
        return;
    }

    // Learn the linear relation from the feeder's latest value.
    auto fit = feeders_.find(st.candidateFeeder);
    if (fit != feeders_.end() && fit->second.haveValue)
        learnRelation(st, fit->second.lastValue, op.memAddr);
}

void
TactFeeder::onLoadComplete(Addr pc, Addr addr, uint64_t value, Cycle now)
{
    auto fit = feeders_.find(pc);
    if (fit == feeders_.end())
        return;
    fit->second.lastValue = value;
    fit->second.haveValue = true;

    // Runahead: prefetch future feeder instances on the feeder's own
    // stride; each chained target prefetch fires when the feeder data
    // would be available.
    int64_t stride = 0;
    if (!stride_(pc, &stride))
        return;
    bool any_learned = false;
    for (Addr t : fit->second.targets) {
        auto tit = targets_.find(t);
        if (tit != targets_.end() && tit->second.learned)
            any_learned = true;
    }
    if (!any_learned)
        return;

    ++runaheads_;
    // Every feeder instance fires, so issuing at the full depth (plus a
    // half-depth warmer for freshly learned targets) covers every future
    // instance in steady state without 16x redundant prefetches.
    const uint32_t depths[2] = {cfg_.feederDepth,
                                std::max(1u, cfg_.feederDepth / 2)};
    for (uint32_t k : depths) {
        Addr f_addr = addrStride(addr, stride, k);
        // Probe, don't move, the feeder line: only the availability time
        // of its data matters, and pulling the feeder's own stream into
        // the L1 would race the baseline prefetchers.
        Cycle data_at = probe_(f_addr, now);
        uint64_t f_value = readMem_(f_addr);
        for (Addr t : fit->second.targets) {
            auto tit = targets_.find(t);
            if (tit == targets_.end() || !tit->second.learned)
                continue;
            const TargetState &st = tit->second;
            Addr t_addr = addrScaled(st.scale, f_value, st.base);
            ++issued_;
            issue_(t_addr, data_at);
        }
        if (depths[0] == depths[1])
            break;
    }
}

namespace
{

template <typename Map>
std::vector<Addr>
feederSortedKeys(const Map &m)
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
TactFeeder::saveWarmState(StateSink &sink) const
{
    sink.tag(stateTag("TFDR"));
    sink.u64(regLastLoadPc_.size());
    for (size_t i = 0; i < regLastLoadPc_.size(); ++i) {
        sink.u64(regLastLoadPc_[i]);
        sink.u64(regLastLoadSeq_[i]);
    }
    sink.u64(seq_);

    sink.u64(targets_.size());
    for (Addr pc : feederSortedKeys(targets_)) {
        const TargetState &st = targets_.at(pc);
        sink.u64(pc);
        sink.u64(st.candidateFeeder);
        sink.u32(st.feederConf.value());
        sink.boolean(st.feederConfirmed);
        sink.u32(static_cast<uint32_t>(st.scaleIdx));
        sink.u32(st.triesOnScale);
        sink.u32(st.scaleRounds);
        sink.i64(st.lastBase);
        sink.boolean(st.haveBase);
        sink.u32(st.baseConf.value());
        sink.boolean(st.learned);
        sink.i64(st.scale);
        sink.i64(st.base);
        sink.boolean(st.exhausted);
    }

    sink.u64(feeders_.size());
    for (Addr pc : feederSortedKeys(feeders_)) {
        const FeederState &st = feeders_.at(pc);
        sink.u64(pc);
        sink.u64(st.lastValue);
        sink.boolean(st.haveValue);
        sink.u64(st.targets.size());
        for (Addr t : st.targets)
            sink.u64(t);
    }

    sink.u64(issued_);
    sink.u64(runaheads_);
}

bool
TactFeeder::loadWarmState(StateSource &src)
{
    if (!src.expect(stateTag("TFDR")))
        return false;
    if (src.u64() != regLastLoadPc_.size() ||
        !src.fits(regLastLoadPc_.size() * 16))
        return false;
    for (size_t i = 0; i < regLastLoadPc_.size(); ++i) {
        regLastLoadPc_[i] = src.u64();
        regLastLoadSeq_[i] = src.u64();
    }
    seq_ = src.u64();

    targets_.clear();
    uint64_t n = src.u64();
    if (!src.fits(n * 64))
        return false;
    for (uint64_t i = 0; i < n; ++i) {
        Addr pc = src.u64();
        TargetState &st = targets_[pc];
        st.candidateFeeder = src.u64();
        st.feederConf.reset(src.u32());
        st.feederConfirmed = src.boolean();
        st.scaleIdx = static_cast<int>(src.u32());
        if (st.scaleIdx < 0 || st.scaleIdx >= kNumScales)
            return false;
        st.triesOnScale = src.u32();
        st.scaleRounds = src.u32();
        st.lastBase = src.i64();
        st.haveBase = src.boolean();
        st.baseConf.reset(src.u32());
        st.learned = src.boolean();
        st.scale = src.i64();
        st.base = src.i64();
        st.exhausted = src.boolean();
    }

    feeders_.clear();
    n = src.u64();
    if (!src.fits(n * 25))
        return false;
    for (uint64_t i = 0; i < n; ++i) {
        Addr pc = src.u64();
        FeederState &st = feeders_[pc];
        st.lastValue = src.u64();
        st.haveValue = src.boolean();
        uint64_t count = src.u64();
        if (!src.fits(count * 8))
            return false;
        st.targets.reserve(count);
        for (uint64_t j = 0; j < count; ++j)
            st.targets.push_back(src.u64());
    }

    issued_ = src.u64();
    runaheads_ = src.u64();
    return src.ok();
}

} // namespace catchsim
