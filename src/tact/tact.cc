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

template <typename IO, typename Self>
void
Tact::warmFields(IO &io, Self &s)
{
    io.tag(stateTag("TACT"));
    io.match(s.cross_ != nullptr);
    if (s.cross_)
        io.section(*s.cross_);
    io.match(s.self_ != nullptr);
    if (s.self_)
        io.section(*s.self_);
    io.match(s.feeder_ != nullptr);
    if (s.feeder_)
        io.section(*s.feeder_);
    io.u64(s.codeStalls_);
    io.u64(s.codeLines_);
}

void
Tact::saveWarmState(StateSink &sink) const
{
    warmFields(sink, *this);
}

bool
Tact::loadWarmState(StateSource &src)
{
    warmFields(src, *this);
    return src.ok();
}

} // namespace catchsim
