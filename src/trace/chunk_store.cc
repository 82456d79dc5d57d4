#include "trace/chunk_store.hh"

#include <utility>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/state_io.hh"

namespace catchsim
{

// --- ChunkGenerator ----------------------------------------------------

ChunkGenerator::ChunkGenerator(Workload &wl, uint32_t chunk_ops,
                               uint64_t max_chunks)
    : wl_(&wl), chunkOps_(chunk_ops), maxChunks_(max_chunks)
{
}

void
ChunkGenerator::discard()
{
    em_.reset();
    rng_.reset();
    mem_.reset();
    spill_.clear();
    spill_.shrink_to_fit();
    started_ = false;
    // The next chunk produced is chunk 0 again; callers that read
    // nextIndex() before calling next() must see that, not the index
    // the discarded engine had reached.
    nextIdx_ = 0;
}

void
ChunkGenerator::reset()
{
    mem_ = std::make_unique<FunctionalMemory>();
    rng_.emplace(wl_->start(*mem_));
    spill_.clear();
    // The budget ends on a chunk boundary, so every chunk served is
    // full; ops a kernel computes past it are dropped by the emitter
    // and never reach a chunk.
    em_.emplace(*mem_, spill_, maxChunks_ * chunkOps_);
    started_ = true;
}

std::vector<MicroOp>
ChunkGenerator::next()
{
    CATCHSIM_ASSERT(nextIdx_ < maxChunks_, "chunk ", nextIdx_,
                    " is past the generator's ", maxChunks_,
                    "-chunk budget");
    if (!started_)
        reset();
    std::vector<MicroOp> out(chunkOps_);
    wl_->emitInto(*em_, *rng_, out.data(), out.size());
    ++nextIdx_;
    return out;
}

// --- ChunkStore --------------------------------------------------------

ChunkStore::ChunkStore(Config cfg) : MemoLru(cfg.memBudgetBytes) {}

std::string
ChunkStore::keyBytes(const ChunkKey &key)
{
    StateSink s;
    s.u64(key.seed);
    s.u32(key.chunkOps);
    s.u64(key.index);
    return s.take() + key.kernel;
}

ChunkStore::ChunkPtr
ChunkStore::find(const ChunkKey &key)
{
    return std::static_pointer_cast<const Chunk>(
        MemoLru::find(keyBytes(key)));
}

ChunkStore::ChunkPtr
ChunkStore::put(const ChunkKey &key, Chunk chunk)
{
    CATCHSIM_ASSERT(chunk.size() == key.chunkOps,
                    "chunk store only holds full chunks: got ",
                    chunk.size(), " ops for a ", key.chunkOps,
                    "-op key");
    return std::static_pointer_cast<const Chunk>(MemoLru::put(
        keyBytes(key), std::make_shared<const Chunk>(std::move(chunk))));
}

size_t
ChunkStore::charge(const void *value, const PartFn &) const
{
    return static_cast<const Chunk *>(value)->size() * sizeof(MicroOp);
}

// --- process-wide store ------------------------------------------------

ChunkStore *
ChunkStore::global()
{
    // Leaked singleton (never destructed): the store may still serve
    // chunks while static destructors run.
    static ChunkStore *const store = []() -> ChunkStore * {
        if (!envFlag("CATCH_STORE"))
            return nullptr;
        return new ChunkStore(); // catch-analyze: allow(raw-new-delete) intentionally leaked process singleton
    }();
    return store;
}

} // namespace catchsim
