#include "trace/chunk_store.hh"

#include <utility>

#include "common/logging.hh"
#include "common/state_io.hh"
#include "trace/trace_io.hh"

namespace catchsim
{

namespace
{

// Chunk-record magic, distinct from full-trace files ("CTSIM\0") so a
// misplaced file of either kind is rejected by the first six bytes.
// The trace format version is the record's kind version.
const ContentStore::Format kChunkFormat = {
    {'C', 'T', 'C', 'H', 'K', '\0'}, kTraceFormatVersion, ".ctc", "chunk",
    FaultKind::TraceCorrupt,          "chunk-store"};

} // namespace

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
    buf_.clear();
    buf_.shrink_to_fit();
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
    rng_.emplace(wl_->seed());
    buf_.clear();
    // The budget ends on a chunk boundary, so every chunk served is
    // full; ops a kernel computes past it are dropped by the emitter
    // and never reach a chunk.
    em_.emplace(*mem_, buf_, maxChunks_ * chunkOps_,
                /*reserve_hint=*/2 * size_t(chunkOps_));
    wl_->setup(*mem_, *rng_);
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
    const size_t want = chunkOps_;
    while (buf_.size() < want) {
        const size_t before = em_->emitted();
        wl_->run(*em_, *rng_);
        CATCHSIM_ASSERT(em_->emitted() > before,
                        "workload kernel made no forward progress");
    }
    std::vector<MicroOp> out(buf_.begin(),
                             buf_.begin() + static_cast<ptrdiff_t>(want));
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(want));
    ++nextIdx_;
    return out;
}

// --- ChunkStore --------------------------------------------------------

ChunkStore::ChunkStore(Config cfg)
    : ContentStore(kChunkFormat, std::move(cfg))
{
}

std::string
ChunkStore::keyBytes(const ChunkKey &key)
{
    StateSink s;
    s.u64(key.seed);
    s.u32(key.chunkOps);
    s.u64(key.index);
    return s.take() + key.kernel;
}

std::string
ChunkStore::diskPath(const ChunkKey &key) const
{
    return ContentStore::diskPath(keyBytes(key));
}

ChunkStore::ChunkPtr
ChunkStore::find(const ChunkKey &key)
{
    return std::static_pointer_cast<const Chunk>(
        ContentStore::find(keyBytes(key)));
}

ChunkStore::ChunkPtr
ChunkStore::put(const ChunkKey &key, Chunk chunk)
{
    CATCHSIM_ASSERT(chunk.size() == key.chunkOps,
                    "chunk store only holds full chunks: got ",
                    chunk.size(), " ops for a ", key.chunkOps,
                    "-op key");
    return std::static_pointer_cast<const Chunk>(ContentStore::put(
        keyBytes(key), std::make_shared<const Chunk>(std::move(chunk)))); // catch-lint: allow(step-alloc) once per 64K-op chunk, not per cycle
}

Expected<ChunkStore::ChunkPtr>
ChunkStore::loadDiskChecked(const ChunkKey &key)
{
    auto v = ContentStore::loadDiskChecked(keyBytes(key));
    if (!v.ok())
        return v.error();
    return std::static_pointer_cast<const Chunk>(std::move(v).value());
}

void
ChunkStore::encode(const void *value, std::vector<uint8_t> &out) const
{
    const Chunk &chunk = *static_cast<const Chunk *>(value);
    size_t at = out.size();
    out.resize(at + chunk.size() * kTraceOpRecordBytes); // catch-lint: allow(step-alloc) once per 64K-op chunk write, not per cycle
    for (const MicroOp &op : chunk) {
        encodeOpRecord(op, out.data() + at);
        at += kTraceOpRecordBytes;
    }
}

Expected<ContentStore::Value>
ChunkStore::decode(const uint8_t *payload, size_t n) const
{
    if (n == 0 || n % kTraceOpRecordBytes != 0)
        return simError(ErrorCategory::TraceCorrupt, "payload of ", n,
                        " bytes is not a whole number of op records");
    auto chunk = std::make_shared<Chunk>(n / kTraceOpRecordBytes); // catch-lint: allow(step-alloc) once per 64K-op chunk, not per cycle
    for (size_t i = 0; i < chunk->size(); ++i)
        if (const char *defect = decodeOpRecord(
                payload + i * kTraceOpRecordBytes, &(*chunk)[i]))
            return simError(ErrorCategory::TraceCorrupt, "op ", i, ": ",
                            defect);
    return Value(std::move(chunk));
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
        Config cfg;
        if (!configureFromEnv(cfg, "chunks", 2, 3))
            return nullptr;
        return new ChunkStore(std::move(cfg)); // catch-lint: allow(raw-new-delete) intentionally leaked process singleton
    }();
    return store;
}

} // namespace catchsim
