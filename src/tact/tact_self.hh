/**
 * @file
 * TACT-Deep-Self (Section IV-B1): deep-distance stride prefetching for
 * critical PCs only. The stride comes from the baseline L1 stride table;
 * this component adds the *distance* decision: it learns a "safe" run
 * length for each PC (how many consecutive instances keep the stride
 * before it breaks, capped at 32, initialised to 4, guarded by a 2-bit
 * confidence) and prefetches at
 *     distance = min(deepMaxDistance, safe_length - current_run)
 * on top of the baseline's distance-1 prefetch.
 */

#ifndef CATCHSIM_TACT_TACT_SELF_HH_
#define CATCHSIM_TACT_TACT_SELF_HH_

#include <functional>
#include <unordered_map>

#include "common/sat_counter.hh"
#include "common/sim_config.hh"
#include "common/state_io.hh"
#include "common/types.hh"

namespace catchsim
{

class TactSelf
{
  public:
    using IssueFn = std::function<void(Addr addr, Cycle now)>;
    /** Queries the baseline stride table: returns true + stride. */
    using StrideFn = std::function<bool(Addr pc, int64_t *stride)>;

    TactSelf(const TactConfig &cfg, StrideFn stride, IssueFn issue);

    /** Called on each dispatch of a critical target load. */
    void onCriticalLoad(Addr pc, Addr addr, Cycle now);

    void dropTarget(Addr pc) { targets_.erase(pc); }

    uint64_t issued() const { return issued_; }

    /** Serializes the learner map (ascending key order) + counter. */
    void saveWarmState(StateSink &sink) const;

    /** Restores a saveWarmState() stream; false on a malformed one. */
    bool loadWarmState(StateSource &src);

  private:
    /** The warmed-state section's layout, for save (Self const) and
     *  load alike; see common/state_io.hh. */
    template <typename IO, typename Self>
    static void warmFields(IO &io, Self &s);

    struct TargetState
    {
        Addr lastAddr = 0;
        bool haveLast = false;
        uint32_t currentRun = 0;  ///< consecutive stride-keeping instances
        uint32_t safeLength = 4;  ///< paper: initialised to four
        SatCounter safeConf{2, 0};
    };

    TactConfig cfg_;
    StrideFn stride_;
    IssueFn issue_;
    std::unordered_map<Addr, TargetState> targets_;
    uint64_t issued_ = 0;
};

} // namespace catchsim

#endif // CATCHSIM_TACT_TACT_SELF_HH_
