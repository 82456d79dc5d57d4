#include "tact/tact.hh"

namespace catchsim
{

Tact::Tact(const TactConfig &cfg, CoreId core, CacheHierarchy &hierarchy,
           CriticalFn is_critical, const FunctionalMemory *mem)
    : cfg_(cfg), core_(core), hierarchy_(hierarchy),
      isCritical_(std::move(is_critical))
{
    auto issue_void = [this](Addr addr, Cycle now) {
        issueData(addr, now);
    };
    auto stride_fn = [this](Addr pc, int64_t *stride) {
        return hierarchy_.strideTable(core_).stableStride(pc, stride);
    };
    if (cfg.cross)
        cross_ = std::make_unique<TactCross>(cfg, issue_void);
    if (cfg.deepSelf)
        self_ = std::make_unique<TactSelf>(cfg, stride_fn, issue_void);
    if (cfg.feeder) {
        auto issue_timed = [this](Addr addr, Cycle now) {
            return issueData(addr, now);
        };
        auto read_mem = [mem](Addr addr) {
            return mem ? mem->read(addr) : 0;
        };
        auto probe = [this](Addr addr, Cycle now) {
            return hierarchy_.probeDataReady(core_, addr, now);
        };
        // 64 registers safely covers any trace's architectural register
        // namespace (our ISA uses 16).
        feeder_ = std::make_unique<TactFeeder>(cfg, 64, stride_fn,
                                               issue_timed, probe,
                                               read_mem);
    }
}

Cycle
Tact::issueData(Addr addr, Cycle now)
{
    if (warming_) {
        // Learning plus functional placement: the same lines land in
        // the same levels the detailed path would have put them
        // (pollution included) with no timing or counters, and the
        // arrival estimate mirrors the detailed return so the feeder's
        // runahead pacing matches.
        Level from = hierarchy_.warmPrefetch(
            core_, addr, CacheHierarchy::PfKind::TactData, now);
        return now + hierarchy_.levelLatency(from);
    }
    Level from = hierarchy_.prefetchToL1(core_, addr, now,
                                         CacheHierarchy::PfKind::TactData);
    return now + hierarchy_.levelLatency(from);
}

void
Tact::onLoadDispatch(const MicroOp &op, Cycle now)
{
    bool critical = isCritical_(op.pc);
    if (cross_)
        cross_->onLoad(op.pc, op.memAddr, now, critical);
    if (self_ && critical)
        self_->onCriticalLoad(op.pc, op.memAddr, now);
    if (feeder_ && critical)
        feeder_->onCriticalLoad(op, now);
}

void
Tact::onLoadComplete(const MicroOp &op, Cycle data_at)
{
    if (feeder_)
        feeder_->onLoadComplete(op.pc, op.memAddr, op.value, data_at);
}

void
Tact::onRetire(const MicroOp &op)
{
    if (feeder_)
        feeder_->onRetire(op);
}

void
Tact::onCodeStall(TraceView trace, size_t idx, Cycle now,
                  const MispredictFn &would_mispredict)
{
    if (!cfg_.code)
        return;
    // A fresh walker per stall binds the stall-time mispredict query
    // (predictor state moves between stalls); counts accumulate here.
    TactCode walker(cfg_,
                    [this](Addr line, Cycle when) {
                        hierarchy_.prefetchToL1(
                            core_, line, when,
                            CacheHierarchy::PfKind::TactCode);
                    },
                    would_mispredict);
    walker.onCodeStall(trace, idx, now);
    codeStalls_ += walker.stalls();
    codeLines_ += walker.linesPrefetched();
}

TactStats
Tact::stats() const
{
    TactStats s;
    if (cross_)
        s.crossIssued = cross_->issued();
    if (self_)
        s.deepIssued = self_->issued();
    if (feeder_) {
        s.feederIssued = feeder_->issued();
        s.feederRunaheads = feeder_->feederRunaheads();
    }
    s.codeStalls = codeStalls_;
    s.codeLines = codeLines_;
    return s;
}

void
Tact::saveWarmState(StateSink &sink) const
{
    sink.tag(stateTag("TACT"));
    sink.boolean(cross_ != nullptr);
    if (cross_)
        cross_->saveWarmState(sink);
    sink.boolean(self_ != nullptr);
    if (self_)
        self_->saveWarmState(sink);
    sink.boolean(feeder_ != nullptr);
    if (feeder_)
        feeder_->saveWarmState(sink);
    sink.u64(codeStalls_);
    sink.u64(codeLines_);
}

bool
Tact::loadWarmState(StateSource &src)
{
    if (!src.expect(stateTag("TACT")))
        return false;
    if (src.boolean() != (cross_ != nullptr))
        return false;
    if (cross_ && !cross_->loadWarmState(src))
        return false;
    if (src.boolean() != (self_ != nullptr))
        return false;
    if (self_ && !self_->loadWarmState(src))
        return false;
    if (src.boolean() != (feeder_ != nullptr))
        return false;
    if (feeder_ && !feeder_->loadWarmState(src))
        return false;
    codeStalls_ = src.u64();
    codeLines_ = src.u64();
    return src.ok();
}

} // namespace catchsim
