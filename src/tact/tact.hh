/**
 * @file
 * TACT coordinator: owns the four prefetch components, routes core
 * events to them, and gates the data prefetchers on the critical-load
 * table (only the ~32 currently-critical target PCs train or fire).
 */

#ifndef CATCHSIM_TACT_TACT_HH_
#define CATCHSIM_TACT_TACT_HH_

#include <functional>
#include <memory>

#include "cache/hierarchy.hh"
#include "common/sim_config.hh"
#include "common/types.hh"
#include "mem/functional_memory.hh"
#include "tact/tact_code.hh"
#include "tact/tact_cross.hh"
#include "tact/tact_feeder.hh"
#include "tact/tact_self.hh"
#include "trace/micro_op.hh"
#include "trace/trace_view.hh"

namespace catchsim
{

/** Per-component issue counts (Fig 13's stack). */
struct TactStats
{
    uint64_t crossIssued = 0;
    uint64_t deepIssued = 0;
    uint64_t feederIssued = 0;
    uint64_t feederRunaheads = 0;
    uint64_t codeStalls = 0;
    uint64_t codeLines = 0;
};

class Tact
{
  public:
    using CriticalFn = std::function<bool(Addr pc)>;
    using MispredictFn = TactCode::MispredictFn;

    /**
     * @param mem the trace's functional memory (feeder value source);
     *        may be nullptr when the feeder component is disabled
     */
    Tact(const TactConfig &cfg, CoreId core, CacheHierarchy &hierarchy,
         CriticalFn is_critical, const FunctionalMemory *mem);

    /** A load leaves the OOO scheduler: address is known. */
    void onLoadDispatch(const MicroOp &op, Cycle now);

    /** A load's data arrives (writeback). */
    void onLoadComplete(const MicroOp &op, Cycle data_at);

    /** Program-order retirement (register dataflow tracking). */
    void onRetire(const MicroOp &op);

    /** Front-end stalled on an L1I miss while fetching trace.at(idx). */
    void onCodeStall(TraceView trace, size_t idx, Cycle now,
                     const MispredictFn &would_mispredict);

    TactStats stats() const;

    /**
     * Functional warming: the components keep learning (trigger caches,
     * safe strides, feeder chains) and issueData switches from timed
     * prefetches to state-only placement via warmPrefetch, so
     * warmed windows start with both trained tables and TACT's line
     * placements — pollution included — while timing and counters stay
     * detailed-mode effects.
     */
    void setWarming(bool warming) { warming_ = warming; }

    /**
     * Serializes every component's learning state — trigger caches,
     * learner maps, feeder register tracking — plus the issue counters
     * (they accumulate during warming and feed TactStats, so a restored
     * run must report the same numbers a fresh warm would have).
     */
    void saveWarmState(StateSink &sink) const;

    /** Restores a saveWarmState() stream taken from a Tact built with
     *  the same config; false on a malformed stream. */
    bool loadWarmState(StateSource &src);

  private:
    Cycle issueData(Addr addr, Cycle now);

    bool warming_ = false;

    TactConfig cfg_;
    CoreId core_;
    CacheHierarchy &hierarchy_;
    CriticalFn isCritical_;

    std::unique_ptr<TactCross> cross_;
    std::unique_ptr<TactSelf> self_;
    std::unique_ptr<TactFeeder> feeder_;

    uint64_t codeStalls_ = 0;
    uint64_t codeLines_ = 0;
};

} // namespace catchsim

#endif // CATCHSIM_TACT_TACT_HH_
