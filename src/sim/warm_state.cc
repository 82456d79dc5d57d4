#include "sim/warm_state.hh"

#include <utility>

#include "common/bitutil.hh"
#include "common/env.hh"
#include "common/state_io.hh"

namespace catchsim
{

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

WarmStateStore::WarmStateStore(Config cfg) : MemoLru(cfg.memBudgetBytes) {}

std::string
WarmStateStore::keyBytes(const WarmStateKey &key)
{
    StateSink s;
    for (uint64_t v : {key.seed, key.boundaryOps, key.totalOps,
                       key.chunkOps, key.configDigest})
        s.u64(v);
    return s.take() + key.kernel;
}

WarmStateStore::SnapshotPtr
WarmStateStore::find(const WarmStateKey &key)
{
    return std::static_pointer_cast<const WarmSnapshot>(
        MemoLru::find(keyBytes(key)));
}

WarmStateStore::SnapshotPtr
WarmStateStore::put(const WarmStateKey &key, WarmSnapshot snap)
{
    return std::static_pointer_cast<const WarmSnapshot>(MemoLru::put(
        keyBytes(key), std::make_shared<const WarmSnapshot>(std::move(snap))));
}

void
WarmStateStore::remove(const WarmStateKey &key)
{
    MemoLru::remove(keyBytes(key));
}

size_t
WarmStateStore::charge(const void *value, const PartFn &shared) const
{
    // Blob bytes and page addresses belong to this snapshot alone; each
    // image layer, its pages at their size in their form, may be shared
    // with sibling snapshots (a kernel image's is shared with all).
    const WarmSnapshot &snap = *static_cast<const WarmSnapshot *>(value);
    snap.pages.forEachLayer(
        [&shared](const auto &layer) { shared(&layer, layer.ownBytes); });
    return snap.bytes.size() + snap.pages.size() * sizeof(Addr);
}

// --- process-wide store ------------------------------------------------

WarmStateStore *
WarmStateStore::global()
{
    // Leaked singleton (never destructed), mirroring ChunkStore: the
    // store may still serve snapshots while static destructors run.
    static WarmStateStore *const store = []() -> WarmStateStore * {
        if (!envFlag("CATCH_STORE"))
            return nullptr;
        return new WarmStateStore(); // catch-analyze: allow(raw-new-delete) intentionally leaked process singleton
    }();
    return store;
}

} // namespace catchsim
