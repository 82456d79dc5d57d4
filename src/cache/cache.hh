/**
 * @file
 * A single set-associative cache array with in-flight fill tracking.
 *
 * Timing note: a line filled at cycle T with source latency L carries
 * readyAt = T + L. A demand access before readyAt pays the remaining
 * time on top of the hit latency - this is how MSHR merging and late
 * prefetches are modelled, and it is what the TACT timeliness stats
 * (Fig 11) measure.
 */

#ifndef CATCHSIM_CACHE_CACHE_HH_
#define CATCHSIM_CACHE_CACHE_HH_

#include <string>
#include <vector>

#include "common/sim_config.hh"
#include "common/state_io.hh"
#include "common/types.hh"

namespace catchsim
{

/** Who placed a line into a cache. */
enum class FillSource : uint8_t
{
    Demand,
    StridePf,   ///< baseline L1 stride prefetcher
    StreamPf,   ///< baseline L2 multi-stream prefetcher
    TactPf,     ///< any TACT data prefetcher
    TactCodePf, ///< TACT code runahead
    OraclePf,
    Writeback,  ///< victim from an inner level
};

/** One cache line's metadata (32 bytes: the wide fields first). */
struct CacheLine
{
    Addr tag = 0;
    Cycle readyAt = 0;        ///< fill completion time
    /// LRU recency: the owning cache's access clock at the last fill or
    /// recency-updating hit. Kept across invalidation (the snapshot
    /// format records every line's stamp).
    uint64_t stamp = 0;
    bool valid = false;
    bool dirty = false;
    FillSource source = FillSource::Demand;
    /**
     * Hierarchy level the fill data came from. While the line is still
     * in flight (readyAt in the future), a demand access is really an
     * L1 miss merging into the outstanding fill's MSHR, so it reports
     * this level as its server.
     */
    Level fillLevel = Level::None;
    bool usedSinceFill = false; ///< for prefetch-accuracy stats
};
static_assert(sizeof(CacheLine) == 32, "CacheLine grew past 32 bytes");

/** Counters for hit rates and the power model. */
struct CacheStats
{
    uint64_t demandAccesses = 0;
    uint64_t demandHits = 0;
    uint64_t fills = 0;
    uint64_t evictions = 0;
    uint64_t dirtyEvictions = 0;
    uint64_t invalidations = 0;
    uint64_t uselessPrefetchEvictions = 0;

    // Energy accounting: every lookup is a read of the array; every fill
    // or dirty-bit update is a write.
    uint64_t readOps = 0;
    uint64_t writeOps = 0;

    double
    hitRate() const
    {
        return demandAccesses
                   ? static_cast<double>(demandHits) / demandAccesses
                   : 0.0;
    }
};

/**
 * A set-associative cache array with true-LRU replacement (the paper's
 * policy at every level). Every set operation is one scan of the set's
 * ways: recency lives in the lines, so a fill finds the merge target,
 * the first invalid way and the LRU victim together.
 */
class Cache
{
  public:
    /** Result of inserting a line: the victim, if one was displaced. */
    struct Victim
    {
        bool valid = false;
        Addr addr = 0;
        bool dirty = false;
        FillSource source = FillSource::Demand;
        bool usedSinceFill = false;
    };

    Cache(std::string name, const CacheGeometry &geom);

    /**
     * Demand lookup of the line containing @p addr: counts the access
     * (and the hit) and updates recency. Probes that must leave both
     * alone use @ref peek.
     * @returns the line if present, nullptr otherwise
     */
    CacheLine *lookup(Addr addr);

    /**
     * Functional-warming lookup: updates replacement recency exactly
     * like a demand hit, but touches no counters — warming must be
     * invisible in the stats the detailed windows report.
     */
    CacheLine *warmLookup(Addr addr);

    /** Peeks without updating stats or recency (oracle queries). */
    const CacheLine *peek(Addr addr) const;
    CacheLine *peek(Addr addr);

    /**
     * Inserts the line containing @p addr, evicting if necessary.
     * If the line is already present its metadata is merged instead.
     */
    Victim fill(Addr addr, bool dirty, Cycle ready_at, FillSource source,
                Level fill_level = Level::None);

    /**
     * Functional-warming fill: same placement/merge/eviction decisions
     * as @ref fill (so inclusion invariants keep holding) but the line
     * is ready immediately and no counters move.
     */
    Victim warmFill(Addr addr, bool dirty, FillSource source,
                    Level fill_level = Level::None);

    /** Removes the line if present. @returns true if it was dirty.
     *  @p count=false keeps warming out of the invalidation stats. */
    bool invalidate(Addr addr, bool *was_present = nullptr,
                    bool count = true);

    /** Removes @p line, which a lookup or peek of this cache returned,
     *  without searching its set again. @returns true if it was dirty. */
    bool invalidate(CacheLine &line, bool count = true);

    const std::string &name() const { return name_; }
    const CacheGeometry &geometry() const { return geom_; }
    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats(); }
    uint32_t latency() const { return geom_.latency; }

    /**
     * Serializes the array state — every line's tag/valid/dirty/
     * readyAt/source/fillLevel/usedSinceFill, then the LRU clock and
     * every line's stamp — for warmed-state snapshots. Stats are NOT
     * included (the simulator resets them at the snapshot boundary
     * anyway).
     */
    void saveWarmState(StateSink &sink) const;

    /**
     * Restores a saveWarmState() stream into a cache of the same
     * geometry. @returns false on a malformed or mis-sized stream.
     */
    bool loadWarmState(StateSource &src);

  private:
    CacheLine *row(Addr addr);
    const CacheLine *row(Addr addr) const;
    void touch(CacheLine &line) { line.stamp = ++clock_; }
    Victim fillImpl(Addr addr, bool dirty, Cycle ready_at,
                    FillSource source, Level fill_level, bool count);

    std::string name_;
    CacheGeometry geom_;
    uint32_t numSets_;
    std::vector<CacheLine> lines_;
    uint64_t clock_ = 0; ///< LRU access clock
    CacheStats stats_;
};

} // namespace catchsim

#endif // CATCHSIM_CACHE_CACHE_HH_
