#include "trace/trace_stream.hh"

#include <algorithm>
#include <cstring>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace catchsim
{

TraceStream::TraceStream(Workload &wl, size_t total_ops, size_t chunk_ops,
                         std::function<double()> gen_clock,
                         ChunkStore *store)
    : wl_(&wl), total_(total_ops), chunk_(chunk_ops),
      mem_(std::make_shared<FunctionalMemory>()),
      genClock_(std::move(gen_clock)), store_(store),
      gen_(wl, static_cast<uint32_t>(chunk_ops),
           (total_ops + chunk_ops - 1) / chunk_ops)
{
    CATCHSIM_ASSERT(chunk_ > 0 && (chunk_ & (chunk_ - 1)) == 0,
                    "TraceStream chunk size must be a power of two");
    const size_t ring_ops = 2 * chunk_;
    ring_ = std::unique_ptr<MicroOp[], RingFree>(
        std::allocator<MicroOp>().allocate(ring_ops), RingFree{ring_ops});
#ifndef NDEBUG
    // A slot read before a refill wrote it decodes as an invalid op
    // class at a wild PC, which every golden would catch.
    std::memset(static_cast<void *>(ring_.get()), 0xA5,
                ring_ops * sizeof(MicroOp));
#endif
    mask_ = ring_ops - 1;
    start();
}

void
TraceStream::start()
{
    const double t0 = genClock_ ? genClock_() : 0;
    genEnd_ = 0;
    refillAt_ = ~size_t(0);
    em_.reset();
    spill_.clear();
    if (store_) {
        // Store mode: the kernel runs inside gen_ (or inside whoever
        // generated the stored chunk) against a private memory; mem_
        // starts from the same post-setup image and is then kept
        // canonical by replaying each served chunk's Store ops.
        // Dropping the engine here is what makes rewind() (and a first
        // miss after it) deterministic: the next miss restarts the
        // kernel from chunk 0.
        gen_.discard();
    } else {
        em_.emplace(*mem_, spill_, total_);
    }
    // start() resets the functional memory in place: its address is
    // part of the public contract (mem() stays valid across rewind()).
    rng_.emplace(wl_->start(*mem_));
    if (genClock_)
        genSeconds_ += genClock_() - t0;
    // Prime both halves of the ring so the consumer starts with a full
    // chunk of lookahead: ensure(0) refills until refillAt_ moves past
    // position 0, i.e. two chunks (or the whole trace) are resident.
    if (total_ > 0) {
        refillAt_ = 0;
        ensure(0);
    }
}

void
TraceStream::rewind()
{
    start();
}

ChunkKey
TraceStream::keyFor(uint64_t index) const
{
    return ChunkKey{wl_->name(), wl_->seed(),
                    static_cast<uint32_t>(chunk_), index};
}

void
TraceStream::generateChunkFromStore()
{
    const double t0 = genClock_ ? genClock_() : 0;
    const size_t want = std::min(chunk_, total_ - genEnd_);
    const uint64_t idx = genEnd_ / chunk_;
    ChunkStore::ChunkPtr c = fetchChunk(idx);
    CATCHSIM_ASSERT(c && c->size() == chunk_,
                    "chunk store served a malformed chunk");
    for (size_t i = 0; i < want; ++i) {
        const MicroOp &op = (*c)[i];
        ring_[(genEnd_ + i) & mask_] = op;
        // Replay the chunk's stores so the consumer-visible memory
        // tracks generation progress exactly as the in-place emitter
        // would have left it (all run()-time writes flow through
        // Emitter::store and are Store-class ops in the trace).
        if (op.isStore())
            mem_->write(op.memAddr, op.value);
    }
    genEnd_ += want;
    refillAt_ = genEnd_ >= total_ ? ~size_t(0) : genEnd_ - chunk_;
    if (genClock_)
        genSeconds_ += genClock_() - t0;
}

ChunkStore::ChunkPtr
TraceStream::fetchChunk(uint64_t index)
{
    ChunkStore::ChunkPtr c = store_->find(keyFor(index));
    if (c) {
        ++storeHitChunks_;
        return c;
    }
    // Regenerate from wherever the engine stands. A fresh (or rewound)
    // engine replays from chunk 0; intermediate chunks are republished
    // so evicted entries repopulate. put() dedups against concurrent
    // streams of the same kernel, and every generator emits identical
    // bytes, so the served chunk is canonical either way.
    ++storeMissChunks_;
    while (gen_.nextIndex() <= index) {
        const uint64_t at = gen_.nextIndex();
        c = store_->put(keyFor(at), gen_.next());
    }
    return c;
}

template <typename IO, typename Self, typename End>
void
TraceStream::warmFields(IO &io, Self &s, End &gen_end)
{
    io.tag(stateTag("TSTR"));
    io.match(s.total_);
    io.match(s.chunk_);
    io.u64(gen_end);
    io.require(gen_end <= s.total_ &&
               gen_end >= std::min(s.total_, 2 * s.chunk_));
}

void
TraceStream::saveWarmState(StateSink &sink) const
{
    CATCHSIM_ASSERT(store_ != nullptr,
                    "warmed-state snapshots require a chunk store");
    warmFields(sink, *this, genEnd_);
}

bool
TraceStream::loadWarmState(StateSource &src,
                           const FunctionalMemory::PageImage &pages)
{
    if (!store_)
        return false;
    uint64_t gen_end = 0;
    warmFields(src, *this, gen_end);
    if (!src.ok())
        return false;
    mem_->restorePages(pages);

    // The ring content is a pure function of the generated-op frontier
    // (chunks are canonical), so a restore whose frontier matches the
    // live one — a warmup too short to trigger a refill — keeps the
    // resident window as-is.
    if (gen_end != genEnd_) {
        // Re-materialize the ring window [gen_end - 2*chunk, gen_end):
        // the consumer's position is always inside it (one refill of
        // slack). Stores are NOT replayed — the restored memory image
        // already reflects every store before the frontier.
        const double t0 = genClock_ ? genClock_() : 0;
        const size_t begin =
            gen_end > 2 * chunk_ ? gen_end - 2 * chunk_ : 0;
        const uint64_t first_idx = begin / chunk_;
        const uint64_t last_idx = (gen_end - 1) / chunk_;
        for (uint64_t idx = first_idx; idx <= last_idx; ++idx) {
            ChunkStore::ChunkPtr c = fetchChunk(idx);
            if (!c || c->size() != chunk_)
                return false;
            const size_t lo =
                std::max(begin, static_cast<size_t>(idx) * chunk_);
            const size_t hi = std::min(static_cast<size_t>(gen_end),
                                       (static_cast<size_t>(idx) + 1) *
                                           chunk_);
            for (size_t i = lo; i < hi; ++i)
                ring_[i & mask_] =
                    (*c)[i - static_cast<size_t>(idx) * chunk_];
        }
        if (genClock_)
            genSeconds_ += genClock_() - t0;
    }

    genEnd_ = gen_end;
    refillAt_ = genEnd_ >= total_ ? ~size_t(0) : genEnd_ - chunk_;
    return true;
}

void
TraceStream::generateChunk()
{
    if (store_) {
        generateChunkFromStore();
        return;
    }
    const double t0 = genClock_ ? genClock_() : 0;
    const size_t want = std::min(chunk_, total_ - genEnd_);
    // genEnd_ is chunk-aligned until the final partial chunk, so the
    // window is one contiguous ring half.
    const size_t at = genEnd_ & mask_;
    CATCHSIM_ASSERT(at + want <= mask_ + 1, "refill window wraps the ring");
    wl_->emitInto(*em_, *rng_, ring_.get() + at, want);
    genEnd_ += want;
    // Keep one full chunk of lookahead ahead of the consumer: the next
    // refill triggers when the consumer enters the last resident chunk.
    refillAt_ = genEnd_ >= total_ ? ~size_t(0) : genEnd_ - chunk_;
    if (genClock_)
        genSeconds_ += genClock_() - t0;
}

} // namespace catchsim
