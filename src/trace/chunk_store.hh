/**
 * @file
 * ChunkStore: a content-addressed, memoized store of generated trace
 * chunks.
 *
 * Trace generation is a pure function of (kernel, seed): the op stream
 * is bitwise-identical on every run, yet every simulation of a sweep
 * regenerates it from scratch — 40–60% of functional-warming cost
 * (docs/PERFORMANCE.md). The store memoizes generation at chunk
 * granularity so every config of a sweep, and every repeat campaign,
 * pays generation exactly once: a TraceStream refill becomes a store
 * lookup, and only a cold store falls back to running the kernel.
 *
 * Addressing. A chunk is identified by (kernel name, workload seed,
 * chunk size in ops, chunk index) plus the trace format version baked
 * into the record encoding (trace_io.hh, kTraceFormatVersion). Chunks
 * are always FULL chunks of exactly chunkOps ops, generated by an
 * engine whose op budget is the requesting stream's length rounded up
 * to whole chunks. Kernels only observe Emitter::done() (never the
 * remaining budget), so the emitted stream is a pure prefix function
 * and a full chunk's content is independent of the total trace length
 * that requested it. That prefix property is what lets a chunk
 * generated for a 200k-op run serve a 500k-op run of the same kernel;
 * the bound keeps a kernel whose one run() pass is a whole multi-row
 * sweep from generating (and buffering) far past what its consumer
 * will ever read.
 *
 * Tiers. ContentStore (common/content_store.hh) supplies both: an LRU
 * of shared immutable chunks under a byte budget, and an optional
 * on-disk tier (--store-dir / CATCH_STORE_DIR, under DIR/chunks) that
 * persists chunks as checksummed records of packed v2 op records so
 * repeat campaigns start warm. Any defect on load (truncation, bit
 * flip, key mismatch, out-of-range op field) surfaces as a
 * trace-corrupt SimError, the bad file is dropped, and the consumer
 * falls back to deterministic regeneration — never a crash, never
 * silently wrong data.
 *
 * Correctness contract: simulation results are bitwise-identical with
 * the store enabled, disabled, cold, warm or size-limited, at any job
 * count (pinned by tests/chunk_store_test.cc). The store can therefore
 * never be a correctness hazard, only a speed lever.
 */

#ifndef CATCHSIM_TRACE_CHUNK_STORE_HH_
#define CATCHSIM_TRACE_CHUNK_STORE_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/content_store.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "trace/workload.hh"

namespace catchsim
{

/** Content address of one generated chunk (format version is implicit:
 *  kTraceFormatVersion is baked into the record encoding). */
struct ChunkKey
{
    std::string kernel; ///< workload suite name
    uint64_t seed = 0;  ///< Workload::seed()
    uint32_t chunkOps = 0;
    uint64_t index = 0; ///< chunk ordinal: ops [index*chunkOps, ...)
};

/**
 * Incremental canonical generation engine: runs a workload kernel
 * against its own private FunctionalMemory and serves the op stream as
 * a sequence of at most maxChunks full chunks. The emitter's budget is
 * exactly maxChunks * chunkOps ops and kernels only observe done(), so
 * chunk k's content depends only on (kernel, seed, chunkOps, k) — the
 * store's addressing invariant — whatever budget produced it. The
 * TraceStream miss path uses this engine.
 */
class ChunkGenerator
{
  public:
    /** Serves @p wl's stream in @p chunk_ops-op chunks, at most
     *  @p max_chunks of them. @p wl must outlive the engine. */
    ChunkGenerator(Workload &wl, uint32_t chunk_ops, uint64_t max_chunks);
    ChunkGenerator(const ChunkGenerator &) = delete;
    ChunkGenerator &operator=(const ChunkGenerator &) = delete;

    /** Drops all engine state; the next next() restarts at chunk 0. */
    void discard();

    /** True once next() started the engine and discard() has not. */
    bool started() const { return started_; }

    /** Index of the chunk the next call to next() will produce. */
    uint64_t nextIndex() const { return nextIdx_; }

    /**
     * Generates the next full chunk (exactly chunkOps ops) of the
     * workload's canonical stream, starting the engine on first use.
     * Asserts nextIndex() < maxChunks.
     */
    std::vector<MicroOp> next();

  private:
    /** Starts the engine at chunk 0: fresh memory, re-seeded RNG,
     *  kernel cursors reset via Workload::setup. */
    void reset();

    Workload *wl_;
    uint32_t chunkOps_;
    uint64_t maxChunks_;
    std::unique_ptr<FunctionalMemory> mem_;
    std::optional<Rng> rng_;
    std::optional<Emitter> em_;
    std::vector<MicroOp> buf_; ///< emitted, not yet chunked out
    uint64_t nextIdx_ = 0;
    bool started_ = false;
};

/**
 * Typed facade over ContentStore: keys are ChunkKeys, values shared
 * immutable chunks charged at their in-memory size, and disk records
 * carry the chunk as packed v2 op records.
 */
class ChunkStore : private ContentStore
{
  public:
    using Chunk = std::vector<MicroOp>;
    using ChunkPtr = std::shared_ptr<const Chunk>;
    using Stats = ContentStore::Stats;

    struct Config : ContentStore::Config
    {
        /** Default in-memory budget: 256 MB of chunks. */
        Config() { memBudgetBytes = size_t(256) << 20; }
    };

    /** Default: memory-tier-only store with the default budget. */
    explicit ChunkStore(Config cfg = {});

    /**
     * Looks @p key up in the memory tier, then the disk tier. A disk
     * record that fails validation counts as corrupt, is deleted, and
     * the call reports a miss — the caller regenerates. Thread-safe.
     */
    ChunkPtr find(const ChunkKey &key);

    /**
     * Publishes a full chunk. First writer wins (every writer holds
     * identical bytes — generation is deterministic); returns the
     * resident chunk, which may outlive any later eviction. Write-
     * through to the disk tier when configured. Thread-safe.
     */
    ChunkPtr put(const ChunkKey &key, Chunk chunk);

    /** ContentStore::loadDiskChecked for @p key; op-record defects are
     *  trace-corrupt too. */
    Expected<ChunkPtr> loadDiskChecked(const ChunkKey &key);

    /** Disk path a key maps to (valid only with a disk tier). */
    std::string diskPath(const ChunkKey &key) const;

    using ContentStore::residentBytes;
    using ContentStore::stats;

    /**
     * The process-wide store, or null when disabled: CATCH_STORE /
     * CATCH_STORE_DIR (disk tier under DIR/chunks) / CATCH_STORE_MB
     * (two thirds of it; ContentStore::configureFromEnv). Off by
     * default so single runs and existing tests keep their exact
     * legacy behaviour. First call caches the environment (thread-safe
     * magic static; reads follow the env.hh startup contract — CLI/
     * bench mains resolve it before spawning workers).
     */
    static ChunkStore *global();

  private:
    static std::string keyBytes(const ChunkKey &key);
    void encode(const void *value,
                std::vector<uint8_t> &out) const override;
    Expected<Value> decode(const uint8_t *payload,
                           size_t n) const override;
    size_t charge(const void *value, const PartFn &shared) const override;
};

} // namespace catchsim

#endif // CATCHSIM_TRACE_CHUNK_STORE_HH_
