#include "sim/warm_state.hh"

#include <cstring>
#include <utility>
#include <vector>

#include "common/bitutil.hh"
#include "common/state_io.hh"

namespace catchsim
{

namespace
{

// Snapshot-record magic, distinct from trace files ("CTSIM\0") and
// chunk records ("CTCHK\0") so a misplaced file of any kind is rejected
// by the first six bytes.
const ContentStore::Format kWarmStateFormat = {
    {'C', 'W', 'A', 'R', 'M', '\0'}, kWarmStateFormatVersion, ".cws",
    "snapshot",                       FaultKind::StateCorrupt,
    "warm-state-store"};

// The payload is [u64 blob len][blob bytes][u64 page count]
// [(u64 page addr, 4096-byte word image) x count], pages in strictly
// ascending address order. Every page is written as its full word
// image whatever its form in memory, so the record layout predates
// sparse pages and a load rebuilds each page in the form its nonzero
// word count calls for (FunctionalMemory::Page::fromWords).
constexpr uint64_t kPageRecordBytes = 8 + kPageBytes;

} // namespace

// --- warming-visible config digest -------------------------------------

/**
 * The digest serializes, in a fixed order, exactly the knobs warming
 * can observe. Everything else — cache latencies, oracle latency
 * adders and demotion, DRAM timing, core width/ROB/ports, the sampling
 * schedule — is warming-invisible by construction (warm fills stamp
 * readyAt 0 and the clock never advances during warming) and is
 * deliberately left out so timing resweeps share snapshots. The
 * catch_analyze warm-digest scope checks that exclusion list against
 * the warming call graph; extend this function whenever a new knob
 * becomes reachable from warmAccess/warmTrain/TACT-learning code.
 */
uint64_t
warmConfigDigest(const SimConfig &cfg)
{
    StateSink s;
    // Layout salt: bumping the format version re-keys digests too.
    s.u32(kWarmStateFormatVersion);

    // Hierarchy shape: geometry (not latency) decides tag/replacement
    // state; inclusion decides the eviction/back-invalidate flow.
    s.boolean(cfg.hasL2);
    s.u8(static_cast<uint8_t>(cfg.inclusion));
    s.u32(cfg.numCores);
    for (const CacheGeometry *g : {&cfg.l1i, &cfg.l1d, &cfg.l2, &cfg.llc}) {
        s.u64(g->sizeBytes);
        s.u32(g->ways);
    }
    // Baseline prefetchers train during warming.
    s.boolean(cfg.l1StridePrefetcher);
    s.boolean(cfg.l2StreamPrefetcher);
    s.u32(cfg.streamDegree);

    // Criticality detection: conservative full inclusion — the table
    // shapes what TACT treats as critical while learning.
    s.boolean(cfg.criticality.enabled);
    s.u8(static_cast<uint8_t>(cfg.criticality.kind));
    s.u32(cfg.criticality.tableEntries);
    s.u32(cfg.criticality.tableWays);
    s.u32(cfg.criticality.confidenceBits);
    s.u64(cfg.criticality.confResetInterval);
    s.u64(static_cast<uint64_t>(cfg.criticality.graphFactor * 1024));
    s.u64(static_cast<uint64_t>(cfg.criticality.walkFactor * 1024));
    s.u32(cfg.criticality.latencyQuantShift);
    s.u32(cfg.criticality.hashedPcBits);

    // TACT learners run (learning-only) during warming.
    s.boolean(cfg.tact.cross);
    s.boolean(cfg.tact.deepSelf);
    s.boolean(cfg.tact.feeder);
    s.boolean(cfg.tact.code);
    s.u32(cfg.tact.triggerCacheSets);
    s.u32(cfg.tact.triggerCacheWays);
    s.u32(cfg.tact.triggerPcsPerPage);
    s.u32(cfg.tact.crossTrainInstances);
    s.u32(cfg.tact.crossCandidateWraps);
    s.u32(cfg.tact.deepMaxDistance);
    s.u32(cfg.tact.safeLengthCap);
    s.u32(cfg.tact.feederDepth);
    s.u32(cfg.tact.codeRunaheadLines);

    // Oracle knobs that inject or suppress warm fills (the latency
    // adders and demotion modes are timing-only and excluded).
    s.boolean(cfg.oracle.oraclePrefetch);
    s.u32(cfg.oracle.oraclePrefetchPcLimit);
    s.boolean(cfg.oracle.oracleCodeInL1);

    return fnv1a(s.bytes().data(), s.size());
}

// --- WarmStateStore -----------------------------------------------------

WarmStateStore::WarmStateStore(Config cfg)
    : ContentStore(kWarmStateFormat, std::move(cfg))
{
}

std::string
WarmStateStore::keyBytes(const WarmStateKey &key)
{
    StateSink s;
    for (uint64_t v : {key.seed, key.boundaryOps, key.totalOps,
                       key.chunkOps, key.configDigest})
        s.u64(v);
    return s.take() + key.kernel;
}

std::string
WarmStateStore::diskPath(const WarmStateKey &key) const
{
    return ContentStore::diskPath(keyBytes(key));
}

WarmStateStore::SnapshotPtr
WarmStateStore::find(const WarmStateKey &key)
{
    return std::static_pointer_cast<const WarmSnapshot>(
        ContentStore::find(keyBytes(key)));
}

WarmStateStore::SnapshotPtr
WarmStateStore::put(const WarmStateKey &key, WarmSnapshot snap)
{
    return std::static_pointer_cast<const WarmSnapshot>(ContentStore::put(
        keyBytes(key), std::make_shared<const WarmSnapshot>(std::move(snap))));
}

void
WarmStateStore::remove(const WarmStateKey &key)
{
    ContentStore::remove(keyBytes(key));
}

Expected<WarmStateStore::SnapshotPtr>
WarmStateStore::loadDiskChecked(const WarmStateKey &key)
{
    auto v = ContentStore::loadDiskChecked(keyBytes(key));
    if (!v.ok())
        return v.error();
    return std::static_pointer_cast<const WarmSnapshot>(std::move(v).value());
}

void
WarmStateStore::encode(const void *value, std::vector<uint8_t> &out) const
{
    const WarmSnapshot &snap = *static_cast<const WarmSnapshot *>(value);
    size_t at = out.size();
    out.resize(at + 8 + snap.bytes.size() + 8 +
               snap.pages.size() * kPageRecordBytes);
    auto put = [&out, &at](const void *src, size_t n) {
        std::memcpy(out.data() + at, src, n);
        at += n;
    };
    const uint64_t blob_len = snap.bytes.size();
    put(&blob_len, 8);
    put(snap.bytes.data(), blob_len);
    const uint64_t page_count = snap.pages.size();
    put(&page_count, 8);
    for (const auto &kv : snap.pages) {
        put(&kv.first, 8);
        kv.second->copyTo(out.data() + at);
        at += kPageBytes;
    }
}

Expected<ContentStore::Value>
WarmStateStore::decode(const uint8_t *payload, size_t n) const
{
    auto defect = [](auto &&...what) {
        return simError(ErrorCategory::TraceCorrupt, what...);
    };
    if (n < 16)
        return defect("payload of ", n, " bytes is below the 16-byte "
                       "floor");
    size_t at = 0;
    uint64_t blob_len = 0;
    std::memcpy(&blob_len, payload, 8);
    at += 8;
    if (blob_len > n - at - 8)
        return defect("component blob length ", blob_len,
                       " overruns the payload");
    auto snap = std::make_shared<WarmSnapshot>();
    snap->bytes.assign(reinterpret_cast<const char *>(payload) + at, blob_len);
    at += blob_len;
    uint64_t page_count = 0;
    std::memcpy(&page_count, payload + at, 8);
    at += 8;
    if ((n - at) % kPageRecordBytes != 0 ||
        (n - at) / kPageRecordBytes != page_count)
        return defect("page section of ", n - at,
                       " bytes disagrees with page count ", page_count);
    snap->pages.reserve(page_count);
    Addr prev = 0;
    for (uint64_t i = 0; i < page_count; ++i) {
        Addr a = 0;
        std::memcpy(&a, payload + at, 8);
        at += 8;
        if (i > 0 && a <= prev)
            return defect("page addresses are not strictly ascending");
        prev = a;
        snap->pages.emplace_back(a,
                                 FunctionalMemory::Page::fromWords(payload + at));
        at += kPageBytes;
    }
    return Value(std::move(snap));
}

size_t
WarmStateStore::charge(const void *value, const PartFn &shared) const
{
    // Blob bytes and page addresses belong to this snapshot alone; the
    // page data, at each page's size in its form, is shared
    // copy-on-write with sibling snapshots.
    const WarmSnapshot &snap = *static_cast<const WarmSnapshot *>(value);
    for (const auto &kv : snap.pages)
        shared(kv.second.get(), kv.second->bytes());
    return snap.bytes.size() + snap.pages.size() * sizeof(Addr);
}

// --- process-wide store ------------------------------------------------

WarmStateStore *
WarmStateStore::global()
{
    // Leaked singleton (never destructed), mirroring ChunkStore: the
    // store may still serve snapshots while static destructors run.
    static WarmStateStore *const store = []() -> WarmStateStore * {
        Config cfg;
        if (!configureFromEnv(cfg, "warm", 1, 3))
            return nullptr;
        return new WarmStateStore(std::move(cfg)); // catch-analyze: allow(raw-new-delete) intentionally leaked process singleton
    }();
    return store;
}

} // namespace catchsim
