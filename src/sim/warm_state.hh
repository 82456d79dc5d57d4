/**
 * @file
 * WarmStateStore: content-addressed warmed-state snapshots.
 *
 * Sampled campaigns spend most of their host time in functional warming
 * (sim/fast_forward.hh). That work is a pure function of the warming
 * identity — (kernel, seed, boundary, trace shape, warming-visible
 * config) — so repeat sweeps that vary only timing knobs re-derive the
 * exact same warmed state over and over. The store memoizes it at two
 * kinds of boundary:
 *
 *   - the global-warmup boundary (windowIndex 0): the state immediately
 *     before resetStats(). Keyed by warmConfigDigest() only, so a pure
 *     timing resweep shares the snapshot — warming stamps fills with
 *     readyAt 0 and never advances the clock, so timing knobs cannot
 *     reach it;
 *   - every sampling-window boundary (windowIndex >= 1): the state at
 *     the end of each inter-window warming gap, where most warming time
 *     goes at the default 20000/2000/2000 schedule. State there depends
 *     on the detailed windows executed before it, so these keys carry
 *     the FULL config digest (timing included; worker_proto.hh
 *     configDigest) plus sampleScheduleDigest() — only a run that
 *     executes bitwise the same detailed prefix may restore one.
 *
 * Snapshots are split into a byte blob (every non-memory component) and
 * a copy-on-write functional-memory page image: the store and restored
 * runs share refcounted immutable page handles, so a restore adopts
 * pointers instead of copying the page map, and a run's first write to
 * a shared page clones just that page (mem/functional_memory.hh).
 *
 * Keying is honest by construction:
 *   - the key carries the trace identity (kernel, seed, totalOps,
 *     chunkOps) and the snapshot position (boundaryOps, windowIndex).
 *     totalOps is in the key because the stream clamps its final chunk
 *     against it, so the generation frontier near the trace end
 *     depends on it;
 *   - warmConfigDigest() hashes every SimConfig knob that can reach
 *     warmed state and deliberately excludes pure timing knobs;
 *     tools/ci/catch_analyze.py (warm-digest scope) statically checks
 *     the exclusion list against the warming call graph, and knows
 *     sampleScheduleDigest() covers the schedule knobs for the
 *     window-boundary keys;
 *   - kWarmStateFormatVersion is part of every record; bump it whenever
 *     any component's saveWarmState encoding changes and stale disk
 *     snapshots turn into clean misses instead of misparses.
 *
 * Tiering and integrity come from ContentStore (common/content_store.hh),
 * shared with the chunk and result stores: a mutex-guarded in-memory LRU
 * over immutable shared snapshots, an optional disk tier (DIR/warm under
 * --store-dir / CATCH_STORE_DIR) with checksummed records written via
 * unique-temp + rename, first-writer-wins put(), and a corrupt record
 * (truncation, bit flip, version skew, key mismatch) is warned about,
 * deleted and reported as a miss — the caller re-warms; results are
 * never wrong, only slower.
 */

#ifndef CATCHSIM_SIM_WARM_STATE_HH_
#define CATCHSIM_SIM_WARM_STATE_HH_

#include <memory>
#include <string>

#include "common/content_store.hh"
#include "common/error.hh"
#include "common/sim_config.hh"
#include "mem/functional_memory.hh"

namespace catchsim
{

/** Bump whenever any component's saveWarmState encoding changes. */
constexpr uint32_t kWarmStateFormatVersion = 2;

/**
 * Identity of one warmed-state snapshot. Two runs with equal keys are
 * guaranteed (by construction of the digests and the trace determinism
 * contract) to derive bitwise-identical warmed state.
 */
struct WarmStateKey
{
    std::string kernel;        ///< workload name
    uint64_t seed = 0;         ///< workload seed
    uint64_t boundaryOps = 0;  ///< trace position of the snapshot
    uint64_t totalOps = 0;     ///< stream total (final-chunk clamp)
    uint64_t chunkOps = 0;     ///< stream chunk size (ring layout)
    uint64_t configDigest = 0; ///< warmConfigDigest(cfg) at windowIndex
                               ///< 0; full configDigest(cfg) otherwise
    uint64_t windowIndex = 0;  ///< 0 = global-warmup boundary;
                               ///< p >= 1 = the gap before period p
    uint64_t scheduleDigest = 0; ///< sampleScheduleDigest(); 0 at the
                                 ///< schedule-independent global boundary

};

/**
 * FNV-1a digest of every SimConfig knob that can influence warmed
 * state. Pure timing knobs are excluded on purpose — see the file
 * comment for the argument and the static check that guards it.
 */
uint64_t warmConfigDigest(const SimConfig &cfg);

/**
 * FNV-1a digest of the sampling schedule (mode, interval, window,
 * warmup). Window-boundary snapshots (windowIndex >= 1) carry it: the
 * state at a window boundary depends on where every earlier detailed
 * window fell, which is exactly what the schedule decides. The global
 * boundary (windowIndex 0) predates the first window and stays
 * schedule-independent, so those keys use 0 instead.
 */
uint64_t sampleScheduleDigest(const SamplingConfig &sc);

/**
 * One warmed-state snapshot: the serialized non-memory components plus
 * a copy-on-write functional-memory image whose page handles are
 * shared between the store, the publishing run and every restored run.
 */
struct WarmSnapshot
{
    std::string bytes;                 ///< every non-memory component
    FunctionalMemory::PageImage pages; ///< COW-shared memory image

    /** Logical size of this snapshot on its own: blob bytes plus the
     *  full page data. Profile counters report it symmetrically for
     *  hits and misses. The store's memory budget does NOT sum these —
     *  it charges page data shared between resident snapshots once
     *  (see WarmStateStore). */
    size_t
    residentBytes() const
    {
        return bytes.size() +
               pages.size() * (sizeof(Addr) + sizeof(FunctionalMemory::Page));
    }
};

/**
 * Typed facade over ContentStore (common/content_store.hh): keys are
 * WarmStateKeys, values immutable snapshots charged sharing-aware —
 * blob bytes and page addresses alone, each copy-on-write page once
 * store-wide however many resident snapshots share it. Thread-safe.
 */
class WarmStateStore : private ContentStore
{
  public:
    using SnapshotPtr = std::shared_ptr<const WarmSnapshot>;
    using Stats = ContentStore::Stats;

    struct Config : ContentStore::Config
    {
        /** Default in-memory budget over the store's PHYSICAL
         *  residency: 128 MB. The window-boundary snapshots of one run
         *  share nearly their whole image (only pages written between
         *  boundaries diverge), so a whole sweep's snapshots typically
         *  cost one workload footprint plus deltas. */
        Config() { memBudgetBytes = size_t(128) << 20; }

        /**
         * Window-boundary eligibility gate, part 1: memoize window
         * boundaries only when the schedule's inter-window slack
         * (interval - warmup - window instrs) is at least this many
         * instructions. A window restore costs roughly one component-
         * blob parse plus an O(pages) map rebuild — a few ms — while
         * the warming it replaces scales with the gap, so short-slack
         * schedules (the 20k-instr default: slack 16k) lose by
         * restoring and long-warming schedules win. 0 = no floor.
         * The gate never changes results — restored and re-warmed
         * state are bitwise identical — only where time goes.
         */
        uint64_t minWindowGapInstrs = 50000;

        /**
         * Window-boundary eligibility gate, part 2: stop memoizing
         * window boundaries once the run's resident page count at the
         * gap start exceeds this. The map rebuild in restorePages()
         * and the snapshot sort are O(pages); page-heavy streaming
         * workloads (hpc.stream: ~17k pages) also warm fastest per
         * instruction (the repeat filter skips most of a sequential
         * walk), so for them re-warming beats restoring at any
         * realistic gap. Evaluated at the pre-gap position, which both
         * the publishing and the consulting run reach with bitwise-
         * identical state — the gate decision is deterministic and
         * consistent across reps, processes and job counts. 0 = no cap.
         */
        uint64_t maxWindowPages = 12288;
    };

    explicit WarmStateStore(Config cfg = {});

    /**
     * Looks @p key up in memory, then on disk. A corrupt disk record is
     * deleted and counted, and the call reports a miss. @returns null
     * on a miss — the caller warms functionally and put()s the result.
     * Disk reads honour the "warm-state-store" injection target, and
     * window-boundary keys also "warm-state-window".
     */
    SnapshotPtr find(const WarmStateKey &key);

    /**
     * Publishes @p snap under @p key and writes it to the disk tier.
     * First writer wins: every writer of a given key derived identical
     * state, so a racing publication keeps the resident copy.
     */
    SnapshotPtr put(const WarmStateKey &key, WarmSnapshot snap);

    /**
     * Drops @p key from both tiers. The simulator calls this when a
     * restored snapshot fails component-level validation (a format bug
     * the checksum cannot catch): the retry re-warms and republishes.
     */
    void remove(const WarmStateKey &key);

    using ContentStore::residentBytes;
    using ContentStore::stats;

    /** Slack floor for window-boundary memoization (Config). */
    uint64_t minWindowGap() const { return minWindowGap_; }

    /** Page-count cap for window-boundary memoization (Config). */
    uint64_t maxWindowPages() const { return maxWindowPages_; }

    /** ContentStore::loadDiskChecked for @p key; payload-shape defects
     *  (blob overrun, page section, page order) are trace-corrupt. */
    Expected<SnapshotPtr> loadDiskChecked(const WarmStateKey &key);

    /** The record path @p key maps to (test + tooling visibility). */
    std::string diskPath(const WarmStateKey &key) const;

    /**
     * The process-wide store, or null when disabled: CATCH_STORE /
     * CATCH_STORE_DIR (disk tier under DIR/warm) / CATCH_STORE_MB (one
     * third of it; ContentStore::configureFromEnv).
     * CATCH_WARM_STATE_MIN_GAP / CATCH_WARM_STATE_MAX_PAGES override
     * the two eligibility gates (0 = ungated). First call reads the
     * environment (env.hh contract).
     */
    static WarmStateStore *global();

  private:
    static std::string keyBytes(const WarmStateKey &key);
    static const char *faultTarget(const WarmStateKey &key);
    void encode(const void *value,
                std::vector<uint8_t> &out) const override;
    Expected<Value> decode(const uint8_t *payload,
                           size_t n) const override;
    size_t charge(const void *value, const PartFn &shared) const override;

    uint64_t minWindowGap_;
    uint64_t maxWindowPages_;
};

} // namespace catchsim

#endif // CATCHSIM_SIM_WARM_STATE_HH_
