/**
 * @file
 * CacheHierarchy: per-core L1I/L1D (+ optional private L2) in front of a
 * shared LLC and DRAM, under one of three inclusion policies:
 *
 *  - Exclusive (Skylake-server): LLC holds L2 victims only; LLC hits
 *    deallocate and refill the L2; every L2 victim (clean or dirty)
 *    travels to the LLC.
 *  - Inclusive (Skylake-client): LLC supersets the inner levels and
 *    back-invalidates them on eviction.
 *  - Nine (no-L2 two-level configs): non-inclusive, non-exclusive.
 *
 * The hierarchy also hosts the baseline prefetchers (L1 stride, L2
 * multi-stream), the paper's oracle knobs (latency adders, criticality
 * demotion, the Fig-5 oracle prefetch) and the entry points used by the
 * TACT prefetchers. Traffic counters feed the power model.
 */

#ifndef CATCHSIM_CACHE_HIERARCHY_HH_
#define CATCHSIM_CACHE_HIERARCHY_HH_

#include <functional>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "common/sim_config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram.hh"
#include "prefetch/stream_prefetcher.hh"
#include "prefetch/stride_prefetcher.hh"

namespace catchsim
{

/** Aggregate hierarchy counters. */
struct HierarchyStats
{
    // Demand loads by serving level.
    uint64_t loads = 0;
    uint64_t loadHits[4] = {0, 0, 0, 0}; ///< indexed by Level L1..Mem
    uint64_t totalLoadLatency = 0;       ///< sum of returned latencies
    uint64_t totalL1HitLatency = 0;      ///< latency of L1-served loads
    uint64_t l1HitsBySource[7] = {};     ///< indexed by FillSource
    uint64_t l1HitWaitBySource[7] = {};  ///< in-flight wait per source
    uint64_t storeAccesses = 0;
    uint64_t storeL1Misses = 0;
    uint64_t rfoHits[4] = {0, 0, 0, 0}; ///< store write-allocate fills

    // Code fetches by serving level.
    uint64_t codeFetches = 0;
    uint64_t codeHits[4] = {0, 0, 0, 0};

    // Oracle studies.
    uint64_t demotedLoads = 0;       ///< hits served at the outer latency
    uint64_t oracleConverted = 0;    ///< Fig 5: L1 misses served at L1 lat

    // TACT prefetch accounting (Fig 11).
    uint64_t tactPrefetches = 0;
    uint64_t tactPfFromL2 = 0;
    uint64_t tactPfFromLlc = 0;
    uint64_t tactPfFromMem = 0;
    uint64_t tactPfDropped = 0;      ///< target already in the L1
    uint64_t tactPfNotOnDie = 0;     ///< dropped: line was not in L2/LLC
    uint64_t tactUsefulHits = 0;     ///< demand hits on TACT-filled lines
    uint64_t codePfIssued = 0;

    // Baseline prefetcher activity.
    uint64_t stridePfIssued = 0;
    uint64_t streamPfIssued = 0;

    // Interconnect / memory traffic in 64 B transfers (power model).
    uint64_t ringTransfers = 0;
    uint64_t memTransfers = 0;

    double
    loadHitFraction(Level l) const
    {
        return loads ? static_cast<double>(
                           loadHits[static_cast<int>(l)]) / loads
                     : 0.0;
    }
};

/** One memory-side response to the core. */
struct MemResult
{
    Level served = Level::L1;
    uint64_t latency = 0;
    /**
     * True when an L1 hit was served by a line a TACT prefetch brought
     * in. The criticality detector treats such loads as outer-level hits
     * so PCs keep their critical-table entries while TACT covers them.
     */
    bool tactCovered = false;
};

class CacheHierarchy
{
  public:
    CacheHierarchy(const SimConfig &cfg);

    /** Install the critical-PC predicate (per core) used by oracles. */
    void
    setCriticalQuery(std::function<bool(CoreId, Addr)> fn)
    {
        isCritical_ = std::move(fn);
    }

    /** Demand data load at @p now. */
    MemResult load(CoreId core, Addr pc, Addr addr, Cycle now);

    /** Store commit: write-allocates, marks dirty, never stalls. */
    void storeCommit(CoreId core, Addr addr, Cycle now);

    /** In-order code fetch of the line containing @p addr. */
    MemResult codeFetch(CoreId core, Addr addr, Cycle now);

    /** Access kinds replayed by the functional-warming engine. */
    enum class WarmKind : uint8_t
    {
        Load,
        Store,
        Code,
    };

    /**
     * Functional-warming access: replays the demand paths' placement,
     * replacement, dirty-bit and inclusion decisions — including the
     * stride/stream prefetcher training and fills — with zero timing
     * (lines are immediately ready, DRAM is never consulted) and zero
     * stats. The exclusive/inclusive invariants hold across any mix of
     * warm and detailed traffic because both place lines through the
     * same placement and per-level fill helpers.
     */
    void warmAccess(CoreId core, Addr pc, Addr addr, Cycle now,
                    WarmKind kind);

    /** Prefetch kinds entering via prefetchToL1. */
    enum class PfKind : uint8_t
    {
        Stride,   ///< baseline L1 stride prefetcher
        TactData, ///< TACT cross / deep-self / feeder
        TactCode, ///< TACT code runahead (fills the L1I)
    };

    /**
     * Prefetches the line containing @p addr into the L1 (D or I).
     * @returns the level the line came from; Level::None when the line
     *          was already L1-resident
     */
    Level prefetchToL1(CoreId core, Addr addr, Cycle now, PfKind kind);

    /**
     * Warming analogue of prefetchToL1 for Stride and TactData (code
     * runahead is never warmed): the same placement, DRAM-sourced
     * fills and pollution included, and for Stride the same stream
     * training, with zero timing and zero stats. @returns the level
     * the line was sourced from; Level::None when already L1-resident.
     */
    Level warmPrefetch(CoreId core, Addr addr, PfKind kind, Cycle now);

    /** True when the line is resident in the L2 or the LLC (oracle). */
    bool inL2OrLlc(CoreId core, Addr addr) const;

    /**
     * True when @p addr's line is valid at @p level (L1 = the data
     * side). Pure probe: no stats or recency updates. Used by the
     * property tests to check inclusion/exclusion invariants.
     */
    bool residentIn(CoreId core, Addr addr, Level level) const;

    /**
     * Estimated cycle at which the data of @p addr would be available to
     * core @p core if requested at @p now, with NO state change. Used by
     * the TACT feeder for its runahead address generation: the feeder
     * line itself need not move, only its value's timing matters.
     */
    Cycle probeDataReady(CoreId core, Addr addr, Cycle now) const;

    const HierarchyStats &stats() const { return stats_; }
    const CacheStats &l1dStats(CoreId c) const { return l1d_[c]->stats(); }
    const CacheStats &l1iStats(CoreId c) const { return l1i_[c]->stats(); }
    const CacheStats *l2Stats(CoreId c) const
    {
        return hasL2() ? &l2_[c]->stats() : nullptr;
    }
    const CacheStats &llcStats() const { return llc_->stats(); }
    const DramStats &dramStats() const { return dram_.stats(); }

    /** Histogram of "% of LLC latency saved" per useful TACT prefetch. */
    const Histogram &tactTimeliness() const { return tactTimeliness_; }

    void resetStats();

    /**
     * Serializes everything functional warming can touch: every cache
     * array (tags/replacement/dirty bits) plus the per-core stride and
     * stream prefetcher tables. DRAM, stats and the timeliness
     * histogram are NOT included — warming never advances them, and the
     * snapshot boundary sits just before resetStats().
     */
    void saveWarmState(StateSink &sink) const;

    /** Restores a saveWarmState() stream into a hierarchy of the same
     *  shape; false on a malformed or mis-shaped stream. */
    bool loadWarmState(StateSource &src);

    bool hasL2() const { return cfg_.hasL2; }
    uint32_t l1Latency() const { return cfg_.l1d.latency; }

    /** Nominal latency of a level (None maps to L1; Mem is an estimate). */
    uint32_t
    levelLatency(Level l) const
    {
        switch (l) {
          case Level::L2: return cfg_.l2.latency + cfg_.oracle.latAddL2;
          case Level::LLC:
            return cfg_.llc.latency + cfg_.oracle.latAddLlc;
          case Level::Mem:
            return cfg_.llc.latency + cfg_.oracle.latAddLlc + 160;
          default: return cfg_.l1d.latency + cfg_.oracle.latAddL1;
        }
    }

  private:
    /** The warmed-state section's layout, for save (Self const) and
     *  load alike; see common/state_io.hh. */
    template <typename IO, typename Self>
    static void warmFields(IO &io, Self &s);

    /** Effective (oracle-adjusted) per-level latencies. */
    uint32_t latL1() const { return cfg_.l1d.latency + cfg_.oracle.latAddL1; }
    uint32_t latL2() const { return cfg_.l2.latency + cfg_.oracle.latAddL2; }
    uint32_t latLlc() const
    {
        return cfg_.llc.latency + cfg_.oracle.latAddLlc;
    }
    /** Representative memory latency for the LLC->Mem demotion oracle. */
    uint32_t latMemEstimate() const { return latLlc() + 160; }

    /** Remaining in-flight time of @p line at @p now. */
    static uint64_t
    remaining(const CacheLine &line, Cycle now)
    {
        return line.readyAt > now ? line.readyAt - now : 0;
    }

    bool critical(CoreId core, Addr pc) const
    {
        return isCritical_ && isCritical_(core, pc);
    }

    /** Fill helpers; each handles the displaced victim per policy.
     *  @p warm selects the stats-free, zero-latency warming variant. */
    void fillL1(CoreId core, bool code, Addr addr, bool dirty,
                Cycle ready_at, FillSource src, Cycle now,
                Level fill_level = Level::None, bool warm = false);
    void fillL2(CoreId core, Addr addr, bool dirty, Cycle ready_at,
                FillSource src, Cycle now, bool warm = false);
    void fillLlc(Addr addr, bool dirty, Cycle ready_at, FillSource src,
                 Cycle now, bool warm = false);
    /** Moves a dirty victim of a non-exclusive L2 (or of the L1 with
     *  no L2) into the LLC: marks the LLC copy dirty, else fills. */
    void writebackToLlc(Addr addr, Cycle now, bool warm);

    /**
     * The L1-bound placement decision of each inclusion policy, shared
     * by the demand, prefetch and warming paths (an L2 hit only needs
     * fillL1). @p llc_line is the copy an LLC lookup or peek returned.
     */
    void placeFromLlc(CoreId core, bool code, Addr addr,
                      CacheLine &llc_line, bool dirty_fill,
                      Cycle ready_at, FillSource src, Cycle now,
                      bool warm);
    /** Placement of a line that came from memory; see placeFromLlc. */
    void placeFromMem(CoreId core, bool code, Addr addr, bool dirty_fill,
                      Cycle ready_at, FillSource src, Cycle now,
                      bool warm);

    /** Services an L1 miss from L2 / LLC / DRAM; fills per policy. */
    MemResult serviceMiss(CoreId core, bool code, Addr addr, Cycle now,
                          bool dirty_fill, uint64_t *hit_ctr);

    /** Warming analogue of serviceMiss: same placement, no timing. */
    void warmMiss(CoreId core, bool code, Addr addr, Cycle now,
                  bool dirty_fill);

    /** Runs the L2 stream prefetcher on an access that missed the L1. */
    void streamObserve(CoreId core, Addr addr, Cycle now);

    /** Warming analogue of streamObserve: trains + fills, no timing. */
    void warmStreamObserve(CoreId core, Addr addr, Cycle now);

    /** Records Fig-11 timeliness when a TACT line gets its first use. */
    void noteTactUse(CacheLine &line, Cycle now);

    SimConfig cfg_;
    Dram dram_;

    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> llc_;

    std::vector<StridePrefetcher> stride_;
    std::vector<StreamPrefetcher> stream_;
    std::vector<Addr> streamCandidates_; ///< scratch, avoids realloc

    std::function<bool(CoreId, Addr)> isCritical_;

    HierarchyStats stats_;
    Histogram tactTimeliness_{10, 11}; ///< % LLC latency saved buckets

  public:
    /** Exposes the per-core stride table to TACT (deep-self/feeder). */
    const StridePrefetcher &strideTable(CoreId c) const
    {
        return stride_[c];
    }
};

} // namespace catchsim

#endif // CATCHSIM_CACHE_HIERARCHY_HH_
