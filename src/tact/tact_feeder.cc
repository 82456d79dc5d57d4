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

template <typename IO, typename Self>
void
TactFeeder::warmFields(IO &io, Self &s)
{
    io.tag(stateTag("TFDR"));
    io.match(s.regLastLoadPc_.size());
    for (size_t i = 0; i < s.regLastLoadPc_.size(); ++i) {
        io.u64(s.regLastLoadPc_[i]);
        io.u64(s.regLastLoadSeq_[i]);
    }
    io.u64(s.seq_);
    io.sortedMap(s.targets_, [&io](auto &st) {
        io.u64(st.candidateFeeder);
        io.u32(st.feederConf);
        io.boolean(st.feederConfirmed);
        io.u32(st.scaleIdx);
        io.require(st.scaleIdx >= 0 && st.scaleIdx < kNumScales);
        io.u32(st.triesOnScale);
        io.u32(st.scaleRounds);
        io.i64(st.lastBase);
        io.boolean(st.haveBase);
        io.u32(st.baseConf);
        io.boolean(st.learned);
        io.i64(st.scale);
        io.i64(st.base);
        io.boolean(st.exhausted);
    });
    io.sortedMap(s.feeders_, [&io](auto &st) {
        io.u64(st.lastValue);
        io.boolean(st.haveValue);
        io.list(st.targets, [&io](auto &pc) { io.u64(pc); });
    });
    io.u64(s.issued_);
    io.u64(s.runaheads_);
}

void
TactFeeder::saveWarmState(StateSink &sink) const
{
    warmFields(sink, *this);
}

bool
TactFeeder::loadWarmState(StateSource &src)
{
    warmFields(src, *this);
    return src.ok();
}

} // namespace catchsim
