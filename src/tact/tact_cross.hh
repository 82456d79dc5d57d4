/**
 * @file
 * TACT-Cross (Section IV-B1): learns a stable address delta between a
 * Trigger-PC and a critical Target-PC within a 4 KB page. Candidates
 * come from the TriggerCache; each candidate gets crossTrainInstances
 * target instances to show a stable delta before the learner moves on,
 * wrapping through the candidate list up to crossCandidateWraps times.
 * Once learned, every dispatch of the trigger prefetches
 * trigger_address + delta into the L1.
 */

#ifndef CATCHSIM_TACT_TACT_CROSS_HH_
#define CATCHSIM_TACT_TACT_CROSS_HH_

#include <functional>
#include <unordered_map>

#include "common/sat_counter.hh"
#include "common/sim_config.hh"
#include "common/types.hh"
#include "tact/trigger_cache.hh"

namespace catchsim
{

/** Per-critical-target cross-association learner. */
class TactCross
{
  public:
    using IssueFn = std::function<void(Addr addr, Cycle now)>;

    TactCross(const TactConfig &cfg, IssueFn issue);

    /** Every demand load passes through (feeds the trigger cache). */
    void onLoad(Addr pc, Addr addr, Cycle now, bool is_critical_target);

    /** Drops learner state for PCs that left the critical table. */
    void dropTarget(Addr pc);

    uint64_t issued() const { return issued_; }

    /** Serializes the trigger cache, learner maps and issue counter
     *  (maps in ascending key order — deterministic bytes). */
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
        Addr triggerPc = 0;
        bool haveTrigger = false;
        uint32_t candidateIdx = 0; ///< position in the candidate list
        uint32_t wraps = 0;
        uint32_t instances = 0;    ///< target instances on this candidate
        int64_t lastDelta = 0;
        SatCounter deltaConf{2, 0};
        bool learned = false;
        int64_t delta = 0;
        bool exhausted = false;    ///< gave up after all wraps
    };

    void train(TargetState &st, Addr target_pc, Addr addr);

    TactConfig cfg_;
    IssueFn issue_;
    TriggerCache triggerCache_;
    std::unordered_map<Addr, TargetState> targets_;
    /** trigger pc -> last dispatched address (for delta computation). */
    std::unordered_map<Addr, Addr> triggerLastAddr_;
    /** trigger pc -> target pcs that fire on it. */
    std::unordered_map<Addr, std::vector<Addr>> firing_;
    uint64_t issued_ = 0;
};

} // namespace catchsim

#endif // CATCHSIM_TACT_TACT_CROSS_HH_
