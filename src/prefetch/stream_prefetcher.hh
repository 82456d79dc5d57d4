/**
 * @file
 * Baseline aggressive multi-stream prefetcher at the L2 (Srinath et al.
 * HPCA '07 / Dahlgren & Stenstrom style): detects per-4KB-page
 * unit-stride line streams in either direction and prefetches a
 * configurable degree of lines ahead into the L2. This is the
 * "traditional prefetcher targeting LLC misses" the paper keeps enabled
 * under every configuration.
 */

#ifndef CATCHSIM_PREFETCH_STREAM_PREFETCHER_HH_
#define CATCHSIM_PREFETCH_STREAM_PREFETCHER_HH_

#include <cstdint>
#include <vector>

#include "common/state_io.hh"
#include "common/types.hh"

namespace catchsim
{

/** Per-page stream detection with direction training. */
class StreamPrefetcher
{
  public:
    /**
     * @param entries number of concurrently tracked pages
     * @param degree lines prefetched ahead of a confirmed stream
     */
    StreamPrefetcher(uint32_t entries, uint32_t degree);

    /**
     * Trains on an access reaching the L2 and appends the lines to
     * prefetch (if any) to @p out.
     */
    void observe(Addr addr, std::vector<Addr> &out);

    uint64_t issued() const { return issued_; }

    /** Serializes tags, training state, the recency list and the issue
     *  counter (warming trains all of them). */
    void saveWarmState(StateSink &sink) const;

    /** Restores a saveWarmState() stream; false on a malformed one. */
    bool loadWarmState(StateSource &src);

  private:
    /** The warmed-state section's layout, for save (Self const) and
     *  load alike; see common/state_io.hh. */
    template <typename IO, typename Self>
    static void warmFields(IO &io, Self &s);

    // Tags live in their own contiguous array so the match scan and the
    // LRU-victim scan compile to straight-line vector code: observe()
    // runs on every access reaching the L2, and on irregular workloads
    // (where nearly every access misses the table) the two scans were
    // the hottest loop in functional warming. kNoPage doubles as the
    // invalid tag — real pages are page-aligned, so ~0 can never match
    // — which keeps the scans free of per-entry valid tests.
    static constexpr Addr kNoPage = ~Addr(0);

    struct Train
    {
        int32_t lastLine = 0;   ///< line offset within page, 0..63
        int32_t direction = 0;  ///< -1 / +1 once trained
        uint32_t confirms = 0;  ///< monotone accesses seen
    };

    /** @returns entry index for @p page, or entries() on a miss. */
    uint32_t find(Addr page) const;

    /** First never-used slot, else the least-recently-used one. */
    uint32_t allocate();

    /** Unlinks entry @p i and relinks it at the MRU head. */
    void touch(uint32_t i);

    std::vector<Addr> streamPages_;
    std::vector<Train> train_;
    // Recency is an intrusive doubly-linked list instead of timestamps:
    // every observe touches exactly one entry, so list order is exactly
    // last-touch order and the LRU victim is the tail — no scan.
    std::vector<uint32_t> prev_;
    std::vector<uint32_t> next_;
    uint32_t head_ = kNil;
    uint32_t tail_ = kNil;
    uint32_t filled_ = 0;
    uint32_t degree_;
    uint64_t issued_ = 0;

    static constexpr uint32_t kNil = ~0u;
};

} // namespace catchsim

#endif // CATCHSIM_PREFETCH_STREAM_PREFETCHER_HH_
