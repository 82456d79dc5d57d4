/**
 * @file
 * Branch direction + target prediction: a tournament of gshare (2-bit
 * counters over a global-history-XOR-PC index) and a per-PC bimodal
 * table, selected by a per-PC chooser - biased-but-random branches need
 * the bimodal side, patterned ones the gshare side. A direct-mapped BTB
 * provides taken targets; a branch mispredicts when the direction is
 * wrong or when it is taken and the BTB has no (or the wrong) target -
 * which is how the varying-target indirect jumps of the
 * interpreter-style workloads pay their redirect penalty.
 */

#ifndef CATCHSIM_CORE_BRANCH_PREDICTOR_HH_
#define CATCHSIM_CORE_BRANCH_PREDICTOR_HH_

#include <cstdint>
#include <vector>

#include "common/state_io.hh"
#include "common/types.hh"
#include "trace/micro_op.hh"

namespace catchsim
{

struct BranchStats
{
    uint64_t branches = 0;
    uint64_t mispredicts = 0;
    uint64_t directionWrong = 0;
    uint64_t targetWrong = 0;

    double
    mispredictRate() const
    {
        return branches ? static_cast<double>(mispredicts) / branches
                        : 0.0;
    }
};

class BranchPredictor
{
  public:
    explicit BranchPredictor(uint32_t history_bits = 14,
                             uint32_t btb_entries = 4096);

    /** Predicts, trains, and returns true on a mispredict. */
    bool predictAndTrain(const MicroOp &op);

    /**
     * Functional-warming entry: identical BTB/counter/chooser/history
     * state updates to @ref predictAndTrain but no stats — warmed
     * branches must be invisible in the measured windows.
     */
    void warmTrain(const MicroOp &op) { train(op); }

    /** Read-only query with current state (TACT-Code runahead). */
    bool wouldMispredict(const MicroOp &op) const;

    const BranchStats &stats() const { return stats_; }
    void resetStats() { stats_ = BranchStats(); }

    /** Serializes counters/chooser/BTB/history (not stats) for
     *  warmed-state snapshots. */
    void saveWarmState(StateSink &sink) const;

    /** Restores a saveWarmState() stream into a predictor of the same
     *  geometry; false on a malformed or mis-sized stream. */
    bool loadWarmState(StateSource &src);

  private:
    /** The warmed-state section's layout, for save (Self const) and
     *  load alike; see common/state_io.hh. */
    template <typename IO, typename Self>
    static void warmFields(IO &io, Self &s);

    struct BtbEntry
    {
        Addr pc = 0;
        Addr target = 0;
        bool valid = false;
    };

    /** What a prediction got wrong (before training moved the state). */
    struct Outcome
    {
        bool dirWrong = false;
        bool targetWrong = false;
        bool mispredict() const { return dirWrong || targetWrong; }
    };

    /** The shared predict+train core; updates state, never stats. */
    Outcome train(const MicroOp &op);

    uint32_t gshareIndex(Addr pc) const;
    uint32_t bimodalIndex(Addr pc) const;
    uint32_t btbIndex(Addr pc) const;
    bool predictDirection(Addr pc) const;

    std::vector<uint8_t> counters_; ///< gshare 2-bit saturating
    std::vector<uint8_t> bimodal_;  ///< per-PC 2-bit saturating
    std::vector<uint8_t> chooser_;  ///< per-PC: >=2 selects gshare
    std::vector<BtbEntry> btb_;
    uint64_t history_ = 0;
    uint32_t historyMask_;
    BranchStats stats_;
};

} // namespace catchsim

#endif // CATCHSIM_CORE_BRANCH_PREDICTOR_HH_
