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
 * a functional-memory PageImage (mem/functional_memory.hh): the run's
 * private pages laid as one more layer over its kernel image, the same
 * immutable kind of image every start restores. A restore stores one
 * pointer, and a run's first write to an image page clones just that
 * page. Pages are sparse or dense, and the budget charges each at its
 * size in its form.
 *
 * Keying is honest by construction:
 *   - the key carries the trace identity (kernel, seed, totalOps,
 *     chunkOps) and the snapshot position (boundaryOps). totalOps is
 *     in the key because the stream clamps its final chunk against it,
 *     so the generation frontier near the trace end depends on it;
 *   - warmConfigDigest() hashes every SimConfig knob that can reach
 *     warmed state and deliberately excludes pure timing knobs;
 *     tools/analysis/catch_analyze.py (warm-digest scope) statically
 *     checks the exclusion list against the warming call graph.
 *
 * Retention is a MemoLru (common/content_store.hh), shared in kind with
 * the chunk and kernel-image stores: a mutex-guarded in-memory LRU over
 * immutable shared snapshots with first-writer-wins put(). Snapshots
 * are never persisted: a process that misses re-warms, so results are
 * never wrong, only slower.
 */

#ifndef CATCHSIM_SIM_WARM_STATE_HH_
#define CATCHSIM_SIM_WARM_STATE_HH_

#include <memory>
#include <string>

#include "common/content_store.hh"
#include "common/sim_config.hh"
#include "mem/functional_memory.hh"

namespace catchsim
{

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
 * an immutable functional-memory image shared between the store, the
 * publishing run and every restored run.
 */
struct WarmSnapshot
{
    std::string bytes;                 ///< every non-memory component
    FunctionalMemory::PageImage pages; ///< shared memory image

    /** Logical size of this snapshot on its own: blob bytes plus every
     *  page at its size in its form (FunctionalMemory::Page::bytes()).
     *  Profile counters report it symmetrically for hits and misses.
     *  The store's memory budget does NOT sum these — it charges image
     *  layers shared between resident snapshots once (see
     *  WarmStateStore). */
    size_t
    residentBytes() const
    {
        return bytes.size() + pages.size() * sizeof(Addr) + pages.bytes();
    }
};

/**
 * Typed facade over MemoLru (common/content_store.hh): keys are
 * WarmStateKeys, values immutable snapshots charged sharing-aware —
 * blob bytes and page addresses alone, each image layer once
 * store-wide however many resident snapshots share it. Thread-safe.
 */
class WarmStateStore : private MemoLru
{
  public:
    using SnapshotPtr = std::shared_ptr<const WarmSnapshot>;
    using Stats = MemoLru::Stats;

    struct Config
    {
        /** LRU budget over the store's PHYSICAL residency: 128 MB.
         *  Snapshots of one kernel's sweep share their kernel image's
         *  layer, so they typically cost one workload footprint plus
         *  deltas. */
        size_t memBudgetBytes;
        Config() : memBudgetBytes(size_t(128) << 20) {}
    };

    explicit WarmStateStore(Config cfg = {});

    /** The resident snapshot for @p key, or null — the caller warms
     *  functionally and put()s the result. */
    SnapshotPtr find(const WarmStateKey &key);

    /**
     * Publishes @p snap under @p key. First writer wins: every writer
     * of a given key derived identical state, so a racing publication
     * keeps the resident copy.
     */
    SnapshotPtr put(const WarmStateKey &key, WarmSnapshot snap);

    /**
     * Drops @p key. The simulator calls this when a found snapshot
     * fails component-level validation: the retry re-warms and
     * republishes.
     */
    void remove(const WarmStateKey &key);

    using MemoLru::residentBytes;
    using MemoLru::stats;

    /**
     * The process-wide store with the default budget, or null unless
     * CATCH_STORE is set. First call reads the environment (env.hh
     * contract).
     */
    static WarmStateStore *global();

  private:
    static std::string keyBytes(const WarmStateKey &key);
    size_t charge(const void *value, const PartFn &shared) const override;
};

} // namespace catchsim

#endif // CATCHSIM_SIM_WARM_STATE_HH_
