#include "trace/chunk_store.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/state_io.hh"
#include "common/thread_pool.hh"
#include "trace/suite.hh"
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

void
ChunkGenerator::reset(Workload &wl, uint32_t chunk_ops)
{
    mem_ = std::make_unique<FunctionalMemory>();
    rng_.emplace(wl.seed());
    buf_.clear();
    // Unbounded op budget: kernels only ever observe done(), which
    // stays false, so the emitted stream is the canonical prefix
    // function of (kernel, seed) regardless of any consumer's total.
    em_.emplace(*mem_, buf_, /*limit=*/~size_t(0),
                /*reserve_hint=*/2 * size_t(chunk_ops));
    wl.setup(*mem_, *rng_);
    nextIdx_ = 0;
    started_ = true;
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

std::vector<MicroOp>
ChunkGenerator::next(Workload &wl, uint32_t chunk_ops)
{
    if (!started_)
        reset(wl, chunk_ops);
    const size_t want = chunk_ops;
    while (buf_.size() < want) {
        const size_t before = em_->emitted();
        wl.run(*em_, *rng_);
        CATCHSIM_ASSERT(em_->emitted() > before,
                        "workload kernel made no forward progress");
    }
    std::vector<MicroOp> out(buf_.begin(),
                             buf_.begin() + static_cast<ptrdiff_t>(want));
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(want));
    ++nextIdx_;
    return out;
}

// --- ChunkStore: producer state ----------------------------------------

/**
 * Per-(kernel, seed, chunkOps) background generation state. The
 * atomics publish consumer progress without locks; the engine itself
 * (workload instance + ChunkGenerator) is serialised by engineMu —
 * generation is sequential by nature, so one producer task at a time
 * advances it (`active` elects that task).
 */
struct ChunkStore::Producer
{
    std::string kernel;
    uint64_t seed = 0;
    uint32_t chunkOps = 0;
    std::atomic<uint64_t> consumerIndex{0}; ///< furthest consumer chunk
    std::atomic<uint64_t> maxChunks{0};     ///< furthest consumer's end
    std::atomic<bool> active{false};        ///< a task owns the engine
    std::mutex engineMu;
    bool broken = false; ///< kernel not instantiable; stay off
    std::unique_ptr<Workload> wl;
    ChunkGenerator gen;
};

// --- ChunkStore --------------------------------------------------------

// Callers must detach any producer pool first (ProducerPoolGuard does);
// no task can then hold a reference into producers_.
ChunkStore::~ChunkStore() = default;

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

// --- producer stage ----------------------------------------------------

void
ChunkStore::setProducerPool(ThreadPool *pool)
{
    pool_.store(pool, std::memory_order_release);
}

void
ChunkStore::kickProducer(const ChunkKey &key, uint64_t max_chunks)
{
    ThreadPool *pool = pool_.load(std::memory_order_acquire);
    if (!pool)
        return;
    Producer *st = nullptr;
    {
        const std::string pk = key.kernel + '|' +
                               std::to_string(key.seed) + '|' +
                               std::to_string(key.chunkOps);
        std::lock_guard<std::mutex> lock(producerMu_);
        auto &slot = producers_[pk];
        if (!slot) {
            slot = std::make_unique<Producer>(); // catch-lint: allow(step-alloc) once per (kernel, seed) identity
            slot->kernel = key.kernel;
            slot->seed = key.seed;
            slot->chunkOps = key.chunkOps;
        }
        st = slot.get();
    }
    // Advance the published consumer frontier monotonically: several
    // streams of the same identity may progress at different rates and
    // the producer chases the furthest one.
    uint64_t cur = st->consumerIndex.load(std::memory_order_relaxed);
    while (cur < key.index &&
           !st->consumerIndex.compare_exchange_weak(cur, key.index)) {
    }
    cur = st->maxChunks.load(std::memory_order_relaxed);
    while (cur < max_chunks &&
           !st->maxChunks.compare_exchange_weak(cur, max_chunks)) {
    }
    if (st->active.exchange(true))
        return; // a task already owns the engine
    if (!pool->trySubmitDetached([this, st] { produceSome(*st); }))
        st->active.store(false); // no idle capacity; retry on next kick
}

void
ChunkStore::produceSome(Producer &st)
{
    bool more = false;
    {
        std::lock_guard<std::mutex> lock(st.engineMu);
        if (st.broken) {
            st.active.store(false);
            return;
        }
        if (!st.wl) {
            auto wl = findWorkload(st.kernel);
            if (!wl.ok() || wl.value()->seed() != st.seed) {
                // Not a suite kernel (custom test workload) or a seed
                // the suite would not produce: the producer cannot
                // regenerate this identity, so it stays off and the
                // consumer generates inline as before.
                st.broken = true;
                st.active.store(false);
                return;
            }
            st.wl = std::move(wl).value();
        }
        uint64_t produced = 0;
        while (produced < kProducerBatchChunks) {
            const uint64_t goal =
                std::min(st.consumerIndex.load(std::memory_order_relaxed) +
                             kProducerAheadChunks,
                         st.maxChunks.load(std::memory_order_relaxed));
            const uint64_t idx = st.gen.nextIndex();
            if (idx >= goal)
                break;
            put(ChunkKey{st.kernel, st.seed, st.chunkOps, idx},
                st.gen.next(*st.wl, st.chunkOps));
            ++produced;
        }
        more = st.gen.nextIndex() <
               std::min(st.consumerIndex.load(std::memory_order_relaxed) +
                            kProducerAheadChunks,
                        st.maxChunks.load(std::memory_order_relaxed));
    }
    if (more) {
        // Chain a fresh task instead of looping: between batches the
        // pool re-decides whether simulation work needs the worker.
        ThreadPool *pool = pool_.load(std::memory_order_acquire);
        if (pool && pool->trySubmitDetached([this, &st] { produceSome(st); }))
            return; // ownership passes to the chained task
    }
    st.active.store(false);
}

// --- process-wide store ------------------------------------------------

ChunkStore *
ChunkStore::global()
{
    // Leaked singleton (never destructed): detached producer tasks may
    // still publish chunks while static destructors would run.
    static ChunkStore *const store = []() -> ChunkStore * {
        Config cfg;
        if (!configureFromEnv(cfg, "chunks", 2, 3))
            return nullptr;
        return new ChunkStore(std::move(cfg)); // catch-lint: allow(raw-new-delete) intentionally leaked process singleton
    }();
    return store;
}

} // namespace catchsim
