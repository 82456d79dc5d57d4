/**
 * @file
 * WarmStateStore: content-addressed warmed-state snapshots.
 *
 * Sampled campaigns spend most of their host time in functional warming
 * (sim/fast_forward.hh). That work is a pure function of the warming
 * identity — (kernel, seed, boundary, trace shape, warming-visible
 * config) — so repeat sweeps that vary only timing knobs re-derive the
 * exact same warmed state over and over. The store memoizes it at the
 * global-warmup boundary: the state immediately before resetStats().
 * Keyed by warmConfigDigest() only, so a pure timing resweep shares the
 * snapshot — warming stamps fills with readyAt 0 and never advances the
 * clock, so timing knobs cannot reach it.
 *
 * Inter-window warming gaps are not memoized. State there embeds the
 * detailed windows executed before it, which every timing knob and the
 * sampling schedule reach, so such a key could only hit on an exact
 * rerun of the same cell — which the content-keyed result store
 * (sim/result_store.hh) already replays whole.
 *
 * Snapshots are split into a byte blob (every non-memory component) and
 * a copy-on-write functional-memory page image: the store and restored
 * runs share refcounted immutable page handles, so a restore adopts
 * pointers instead of copying the page map, and a run's first write to
 * a shared page clones just that page (mem/functional_memory.hh). Pages
 * are sparse or dense in memory, and the budget charges each at its
 * size in its form; a disk record still holds every page as its 4 KB
 * word image, and a load rebuilds the sparse form for a page with few
 * nonzero words, so records do not depend on the in-memory form.
 *
 * Keying is honest by construction:
 *   - the key carries the trace identity (kernel, seed, totalOps,
 *     chunkOps) and the snapshot position (boundaryOps). totalOps is
 *     in the key because the stream clamps its final chunk against it,
 *     so the generation frontier near the trace end depends on it;
 *   - warmConfigDigest() hashes every SimConfig knob that can reach
 *     warmed state and deliberately excludes pure timing knobs;
 *     tools/analysis/catch_analyze.py (warm-digest scope) statically
 *     checks the exclusion list against the warming call graph;
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

/**
 * Bump whenever any section's byte layout changes: a component's
 * warmFields field list (common/state_io.hh), the snapshot sequence in
 * sim/simulator.cc, or the record codec below. Each section's bytes are
 * pinned by a golden (tests/warm_state_test.cc), so a layout change
 * cannot go unnoticed.
 */
constexpr uint32_t kWarmStateFormatVersion = 2;

/**
 * Identity of one warmed-state snapshot. Two runs with equal keys are
 * guaranteed (by construction of the digest and the trace determinism
 * contract) to derive bitwise-identical warmed state.
 */
struct WarmStateKey
{
    std::string kernel;        ///< workload name
    uint64_t seed = 0;         ///< workload seed
    uint64_t boundaryOps = 0;  ///< trace position of the snapshot
    uint64_t totalOps = 0;     ///< stream total (final-chunk clamp)
    uint64_t chunkOps = 0;     ///< stream chunk size (ring layout)
    uint64_t configDigest = 0; ///< warmConfigDigest(cfg)
};

/**
 * FNV-1a digest of every SimConfig knob that can influence warmed
 * state. Pure timing knobs are excluded on purpose — see the file
 * comment for the argument and the static check that guards it.
 */
uint64_t warmConfigDigest(const SimConfig &cfg);

/**
 * One warmed-state snapshot: the serialized non-memory components plus
 * a copy-on-write functional-memory image whose page handles are
 * shared between the store, the publishing run and every restored run.
 */
struct WarmSnapshot
{
    std::string bytes;                 ///< every non-memory component
    FunctionalMemory::PageImage pages; ///< COW-shared memory image

    /** Logical size of this snapshot on its own: blob bytes plus every
     *  page at its size in its form (FunctionalMemory::Page::bytes()).
     *  Profile counters report it symmetrically for hits and misses.
     *  The store's memory budget does NOT sum these — it charges page
     *  data shared between resident snapshots once (see
     *  WarmStateStore). */
    size_t
    residentBytes() const
    {
        size_t n = bytes.size() + pages.size() * sizeof(Addr);
        for (const auto &kv : pages)
            n += kv.second->bytes();
        return n;
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
         *  residency: 128 MB. Snapshots of one kernel's sweep share
         *  their copy-on-write pages, so they typically cost one
         *  workload footprint plus deltas. */
        Config() { memBudgetBytes = size_t(128) << 20; }
    };

    explicit WarmStateStore(Config cfg = {});

    /**
     * Looks @p key up in memory, then on disk. A corrupt disk record is
     * deleted and counted, and the call reports a miss. @returns null
     * on a miss — the caller warms functionally and put()s the result.
     * Disk reads honour the "warm-state-store" injection target.
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

    /** ContentStore::loadDiskChecked for @p key; payload-shape defects
     *  (blob overrun, page section, page order) are trace-corrupt. */
    Expected<SnapshotPtr> loadDiskChecked(const WarmStateKey &key);

    /** The record path @p key maps to (test + tooling visibility). */
    std::string diskPath(const WarmStateKey &key) const;

    /**
     * The process-wide store, or null when disabled: CATCH_STORE /
     * CATCH_STORE_DIR (disk tier under DIR/warm) / CATCH_STORE_MB (one
     * third of it; ContentStore::configureFromEnv). First call reads
     * the environment (env.hh contract).
     */
    static WarmStateStore *global();

  private:
    static std::string keyBytes(const WarmStateKey &key);
    void encode(const void *value,
                std::vector<uint8_t> &out) const override;
    Expected<Value> decode(const uint8_t *payload,
                           size_t n) const override;
    size_t charge(const void *value, const PartFn &shared) const override;
};

} // namespace catchsim

#endif // CATCHSIM_SIM_WARM_STATE_HH_
