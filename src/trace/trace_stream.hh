/**
 * @file
 * TraceStream: chunked, double-buffered trace generation.
 *
 * The materialize-everything model (Workload::generate) allocates the
 * whole op vector up front — ~32 bytes per instruction, gigabytes for
 * long campaigns — and then streams it through the core exactly once.
 * TraceStream replaces that with a ring of two chunk-sized buffers the
 * kernel fills just ahead of the consumer: memory drops from O(instrs)
 * to O(chunk) and the resident window stays cache-hot. The kernel emits
 * straight into the ring half being refilled (Workload::emitInto); only
 * its overshoot past the half's end waits in a small spill buffer, which
 * seeds the next refill. The ring is never value-initialized: every slot
 * is written by a refill before the consumer can read it.
 *
 * Contract with the consumer (OooCore/Frontend):
 *   - positions are consumed in nondecreasing order; before touching
 *     position p the consumer calls ensure(p) (a single compare against
 *     refillAt() on the hot path);
 *   - after ensure(p), every index in [p, min(size, p + chunkOps()))
 *     is resident, which is what bounds the TACT-Code runahead walk
 *     (kCodeRunaheadHorizonOps <= chunk);
 *   - generation is a pure function of the workload's seed: the op
 *     sequence is bitwise-identical to Workload::generate(size), and
 *     rewind() restarts the kernel from its post-setup state
 *     (Workload::start) and replays it instead of re-reading a stored
 *     vector.
 *
 * The functional memory evolves exactly as under generate(): kernels
 * run in emission order, at most ~2 chunks ahead of consumption. It
 * starts on its kernel's image and a warmed-state restore swaps in the
 * snapshot's, each an immutable PageImage shared by pointer
 * (mem/functional_memory.hh), so neither copies a page. The
 * TACT-Feeder value source (Trace::mem's "stable for the addresses
 * feeder chases" argument) is unchanged — pointer structures are
 * written during setup, which completes before the first op is served.
 */

#ifndef CATCHSIM_TRACE_TRACE_STREAM_HH_
#define CATCHSIM_TRACE_TRACE_STREAM_HH_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "trace/chunk_store.hh"
#include "trace/trace_view.hh"
#include "trace/workload.hh"

namespace catchsim
{

class TraceStream
{
  public:
    /** Default chunk: 64K ops (2 MB resident) — LLC-sized, and twice
     *  the code-runahead horizon the consumer may scan past a stall. */
    static constexpr size_t kDefaultChunkOps = 65536;

    /**
     * Starts streaming @p total_ops ops of @p wl. The workload object
     * must outlive the stream and is exclusively owned by it while
     * streaming: Workload::start() resets its generation cursors
     * (restart()) on construction and on every rewind(), and run()
     * advances them.
     * @param chunk_ops refill granularity; must be a power of two.
     *        Consumers that read ahead (the core's runahead walker)
     *        additionally require chunk_ops >= kCodeRunaheadHorizonOps.
     * @param gen_clock optional host-seconds source; when set, time
     *        spent generating (setup + every refill) accrues into
     *        genSeconds() for host-side profiling. Never affects the
     *        generated ops.
     * @param store optional memoized chunk store: refills become store
     *        lookups (kernel runs only on a miss, and misses publish
     *        the generated chunk for every later consumer). The served
     *        ops are bitwise-identical to the storeless path; null
     *        keeps the legacy generate-in-place behaviour exactly.
     */
    TraceStream(Workload &wl, size_t total_ops,
                size_t chunk_ops = kDefaultChunkOps,
                std::function<double()> gen_clock = {},
                ChunkStore *store = nullptr);

    /** Total ops this stream will serve. */
    size_t size() const { return total_; }

    size_t chunkOps() const { return chunk_; }

    /** Masked view over the ring; valid for the life of the stream. */
    TraceView
    view() const
    {
        return TraceView{ring_.get(), mask_, total_};
    }

    /**
     * First position that requires a refill before being read; ~0 once
     * the stream is fully generated. The consumer's hot path is
     * `if (pos >= refillAt()) ensure(pos)`.
     */
    size_t refillAt() const { return refillAt_; }

    /** Materializes the window covering @p pos (and the lookahead). */
    void
    ensure(size_t pos)
    {
        while (pos >= refillAt_)
            generateChunk();
    }

    /**
     * Restarts the stream from op 0 by restarting the kernel
     * (Workload::start) and regenerating — the streamed equivalent of
     * re-reading a stored vector. The functional memory is reset in place, so pointers to
     * it (TACT-Feeder's value source) remain valid.
     */
    void rewind();

    /**
     * The functional memory the kernel computes against. Stable across
     * rewind(); evolves with generation progress exactly as it does
     * under Workload::generate.
     */
    const std::shared_ptr<FunctionalMemory> &mem() const { return mem_; }

    /** Host seconds spent generating; 0 unless a gen_clock was given.
     *  With a store this covers the whole refill path (lookups and
     *  regeneration), so hit-rate shows up as the ratio of this number
     *  across cold and warm runs. */
    double genSeconds() const { return genSeconds_; }

    /** Chunk refills served from the store (0 without a store). */
    uint64_t storeHits() const { return storeHitChunks_; }

    /** Chunk refills that ran the kernel (with a store: misses). */
    uint64_t storeMisses() const { return storeMissChunks_; }

    /** True when refills go through a chunk store — the only mode the
     *  warmed-state snapshots support (see saveWarmState). */
    bool storeBacked() const { return store_ != nullptr; }

    /**
     * Serializes the stream's consumer-visible state: the generated-op
     * frontier (total, chunk, genEnd). The functional-memory image
     * travels separately as an immutable page image — see
     * WarmSnapshot — so restores share pages instead of reparsing
     * them. Store-backed streams only: the legacy in-place generator
     * cannot jump its kernel cursors, so snapshots are gated on the
     * chunk store being enabled.
     */
    void saveWarmState(StateSink &sink) const;

    /**
     * Restores a saveWarmState() stream taken at the same (workload,
     * total, chunk) identity: makes the image @p pages the functional
     * memory's base in place (the mem() address — TACT-Feeder's value
     * source — is preserved, and the image stays frozen: the memory
     * clones a page on its first write to it), then re-fetches the
     * ring chunks covering
     * the restored frontier from the chunk store (regenerating on a
     * store miss) WITHOUT replaying their stores — the restored memory
     * already reflects every store before the frontier. When the live
     * frontier already equals the snapshot's, the ring is bitwise
     * up-to-date (its content is a pure function of the frontier) and
     * the re-fetch is skipped. @returns false on a malformed stream or
     * when the stream is not store-backed.
     */
    bool loadWarmState(StateSource &src,
                       const FunctionalMemory::PageImage &pages);

  private:
    /** The frontier section's layout, for save (Self const) and load
     *  alike (see common/state_io.hh); @p gen_end is the frontier. */
    template <typename IO, typename Self, typename End>
    static void warmFields(IO &io, Self &s, End &gen_end);

    /** Find-or-regenerate of one chunk; replaying its stores into mem_
     *  is the caller's choice (refills do, restores do not). */
    ChunkStore::ChunkPtr fetchChunk(uint64_t index);

    void start();
    void generateChunk();
    void generateChunkFromStore();
    ChunkKey keyFor(uint64_t index) const;

    /** Returns the ring's storage to the allocator it came from. */
    struct RingFree
    {
        size_t ops;
        void
        operator()(MicroOp *p) const
        {
            std::allocator<MicroOp>().deallocate(p, ops);
        }
    };

    Workload *wl_;
    size_t total_;
    size_t chunk_;
    size_t mask_;
    /** 2 x chunk ops of uninitialized storage (see the file comment);
     *  debug builds poison it so a read before a write shows. */
    std::unique_ptr<MicroOp[], RingFree> ring_;

    std::shared_ptr<FunctionalMemory> mem_;
    std::optional<Rng> rng_;
    std::optional<Emitter> em_;

    /** Ops the kernel emitted past the refilled half's end (kernels
     *  overshoot by up to one outer loop); the next refill drains it. */
    std::vector<MicroOp> spill_;

    size_t genEnd_ = 0;            ///< ops generated into the ring
    size_t refillAt_ = ~size_t(0); ///< see refillAt()

    std::function<double()> genClock_;
    double genSeconds_ = 0;

    /** Memoized-pipeline state; unused (and gen_ never started) when
     *  store_ is null. The consumer-visible mem_ stays canonical by
     *  replaying the Store-class ops of every served chunk; gen_ runs
     *  the kernel against its own private memory on misses, with a
     *  budget of this stream's length rounded up to whole chunks. */
    ChunkStore *store_ = nullptr;
    ChunkGenerator gen_;
    uint64_t storeHitChunks_ = 0;
    uint64_t storeMissChunks_ = 0;
};

static_assert(kCodeRunaheadHorizonOps <= TraceStream::kDefaultChunkOps / 2,
              "the runahead horizon must fit inside the guaranteed "
              "stream lookahead of one chunk");

} // namespace catchsim

#endif // CATCHSIM_TRACE_TRACE_STREAM_HH_
