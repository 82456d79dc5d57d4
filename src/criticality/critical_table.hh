/**
 * @file
 * The critical-load table (Section IV-A, "Recording the Critical
 * Instructions"): a 32-entry, 8-way set-associative, LRU-managed table of
 * load PCs found on the critical path that hit in the L2 or LLC. Each
 * entry carries a 2-bit saturating confidence counter; a PC is reported
 * critical only while its confidence is saturated. Every 100 K retired
 * instructions, entries that have not reached saturation are reset and
 * must re-learn.
 */

#ifndef CATCHSIM_CRITICALITY_CRITICAL_TABLE_HH_
#define CATCHSIM_CRITICALITY_CRITICAL_TABLE_HH_

#include <cstdint>
#include <vector>

#include "common/sim_config.hh"
#include "common/state_io.hh"
#include "common/types.hh"

namespace catchsim
{

/** Statistics exported by the table. */
struct CriticalTableStats
{
    uint64_t recordings = 0;   ///< critical-path loads reported to us
    uint64_t insertions = 0;   ///< new PCs allocated
    uint64_t evictions = 0;    ///< LRU replacements (table pressure)
    uint64_t confidenceResets = 0;
    uint64_t queries = 0;
    uint64_t queryHits = 0;    ///< queries answered "critical"
};

class CriticalTable
{
  public:
    explicit CriticalTable(const CriticalityConfig &cfg);

    /** Reports one critical-path load PC (from a graph walk). */
    void record(Addr pc);

    /** True when @p pc is currently marked critical (saturated entry). */
    bool isCritical(Addr pc) const;

    /**
     * Advances the retired-instruction clock; performs the periodic
     * confidence reset when the interval elapses.
     */
    void tick(uint64_t retired_instrs);

    /** Number of currently saturated (actively critical) PCs. */
    uint32_t activeCount() const;

    const CriticalTableStats &stats() const { return stats_; }

    /**
     * Serializes entries, the LRU clock and the stats counters for
     * warmed-state snapshots. Unlike the other warmed components the
     * stats ARE part of the payload: warm fills query the table through
     * the hierarchy's criticality callback, and the query counters are
     * never reset at the warmup boundary — a restored run must report
     * the same cumulative counts a freshly warmed one would.
     */
    void saveWarmState(StateSink &sink) const;

    /** Restores a saveWarmState() stream into a table of the same
     *  geometry; false on a malformed or mis-sized stream. */
    bool loadWarmState(StateSource &src);

  private:
    /** The warmed-state section's layout, for save (Self const) and
     *  load alike; see common/state_io.hh. */
    template <typename IO, typename Self>
    static void warmFields(IO &io, Self &s);

    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        uint32_t confidence = 0;
        uint64_t lastUse = 0;
    };

    uint32_t setOf(Addr pc) const;

    CriticalityConfig cfg_;
    uint32_t numSets_;
    uint32_t confMax_;
    std::vector<Entry> entries_;
    uint64_t clock_ = 0;
    uint64_t lastReset_ = 0;
    mutable CriticalTableStats stats_;
};

} // namespace catchsim

#endif // CATCHSIM_CRITICALITY_CRITICAL_TABLE_HH_
