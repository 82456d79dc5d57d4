/**
 * @file
 * The warmed-state store's correctness contract, pinned exhaustively:
 *
 *  1. Keying — warmConfigDigest() is invariant under every pure timing
 *     knob (that invariance is the whole speedup story: latency
 *     resweeps share snapshots) and sensitive to every warming-visible
 *     knob; snapshot blobs are a pure function of the key.
 *  2. Equivalence — full sampled campaigns are bitwise-identical with
 *     the store disabled, cold, warm, disk-backed or eviction-
 *     thrashing, at jobs 1/8/16. The store may only ever be a speed
 *     lever, never a correctness hazard; detailed mode and ineligible
 *     runs never consult it.
 *  3. Record codec — snapshots sharing pages charge them once, payload
 *     shape defects (blob overrun, page section, page order) behind a
 *     valid frame are corrupt and dropped, and the window injection
 *     target spares global-warmup reads. The LRU, frame
 *     validation and corruption containment themselves are pinned
 *     once, for all stores, by tests/content_store_test.cc.
 *  5. Component round trips — every warmed component's save → load →
 *     save is byte-identical through a freshly constructed instance,
 *     so a restore is indistinguishable from the warm it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/fault_inject.hh"
#include "common/state_io.hh"
#include "core/branch_predictor.hh"
#include "criticality/critical_table.hh"
#include "sim/configs.hh"
#include "sim/fast_forward.hh"
#include "sim/parallel_runner.hh"
#include "sim/warm_state.hh"
#include "sim_result_compare.hh"
#include "store_test_util.hh"
#include "tact/tact.hh"
#include "trace/chunk_store.hh"
#include "trace/suite.hh"
#include "trace/trace_stream.hh"

namespace catchsim
{
namespace
{

constexpr uint64_t kInstr = 20000;
constexpr uint64_t kWarm = 5000;

/** A synthetic snapshot identity for LRU/disk unit tests. */
WarmStateKey
wkeyAt(uint64_t n)
{
    return WarmStateKey{"mcf", 7, kWarm, kInstr + kWarm,
                        TraceStream::kDefaultChunkOps, 0x1000 + n};
}

SimConfig
sampledCfg(SimConfig cfg)
{
    cfg.sampling.mode = SampleMode::Sampled;
    cfg.sampling.intervalInstrs = 5000;
    cfg.sampling.windowInstrs = 2000;
    cfg.sampling.warmupInstrs = 2000;
    return cfg;
}

/**
 * Store config with the window-eligibility gates disabled. The test
 * schedule above has a 1000-instruction slack — far below the default
 * minWindowGapInstrs floor, which exists because restoring a window
 * snapshot only pays off against long warming gaps. The functional
 * contract under test (bitwise equivalence, counter attribution,
 * record purity) must hold whenever windows memoize, so these tests
 * opt out of the profitability heuristic.
 */
WarmStateStore::Config
ungatedWindows()
{
    WarmStateStore::Config cfg;
    cfg.minWindowGapInstrs = 0;
    cfg.maxWindowPages = 0;
    return cfg;
}

// ---------------------- Config digest ----------------------------

TEST(WarmConfigDigest, PureTimingKnobsShareTheDigest)
{
    // The headline property: a latency/bandwidth resweep — the bread
    // and butter of the paper's figures — must map every point onto
    // the same snapshot. Warming stamps fills with readyAt 0 and never
    // advances the clock, so none of these knobs can reach warm state.
    const SimConfig base = withCatch(baselineSkx());
    const uint64_t d = warmConfigDigest(base);

    SimConfig t = base;
    t.l1d.latency = 9;
    t.l2.latency = 30;
    t.llc.latency = 80;
    t.oracle.latAddL1 = 3;
    t.oracle.latAddLlc = 10;
    t.oracle.demote = DemoteMode::L1ToL2All;
    t.width = 2;
    t.robSize = 64;
    t.storeQueueSize = 16;
    t.fwdLatency = 1;
    t.aluPorts = 1;
    t.dram.tCas = 80;
    t.dram.controllerLat = 60;
    t.sampling.intervalInstrs = 777;
    t.sampling.windowInstrs = 333;
    t.name = "renamed";
    EXPECT_EQ(warmConfigDigest(t), d)
        << "a pure timing resweep must share the warmed snapshot";
}

TEST(WarmConfigDigest, WarmingVisibleKnobsReKeyTheDigest)
{
    const SimConfig base = withCatch(baselineSkx());
    const uint64_t d = warmConfigDigest(base);
    // Each mutation can reach tag/replacement/predictor/TACT state
    // during warming, so each must produce a distinct snapshot key.
    std::vector<std::pair<std::string, SimConfig>> variants;
    auto add = [&](const std::string &what, auto &&mutate) {
        SimConfig v = base;
        mutate(v);
        variants.emplace_back(what, v);
    };
    add("seed", [](SimConfig &v) { v.seed += 1; });
    add("llc ways", [](SimConfig &v) { v.llc.ways = 8; });
    add("l2 size", [](SimConfig &v) { v.l2.sizeBytes /= 2; });
    add("inclusion", [](SimConfig &v) {
        v.inclusion = InclusionPolicy::Inclusive;
    });
    add("stride prefetcher", [](SimConfig &v) {
        v.l1StridePrefetcher = false;
    });
    add("stream degree", [](SimConfig &v) { v.streamDegree = 2; });
    add("criticality table", [](SimConfig &v) {
        v.criticality.tableEntries *= 2;
    });
    add("tact cross", [](SimConfig &v) { v.tact.cross = false; });
    add("tact feeder depth", [](SimConfig &v) { v.tact.feederDepth += 1; });
    add("oracle prefetch", [](SimConfig &v) {
        v.oracle.oraclePrefetch = true;
    });
    for (const auto &[what, v] : variants)
        EXPECT_NE(warmConfigDigest(v), d) << what;
}

// -------------------- Snapshot record codec ----------------------

/** A snapshot with two COW pages at distinct addresses. */
WarmSnapshot
pagedSnapshot(const std::string &blob)
{
    FunctionalMemory mem;
    mem.write(0, 1);
    mem.write(3 * kPageBytes, 2);
    return WarmSnapshot{blob, mem.snapshotPages()};
}

/** Writes pagedSnapshot("blob") for @p key into @p dir; returns the
 *  record path. */
std::string
writePagedRecord(const std::string &dir, const WarmStateKey &key)
{
    WarmStateStore::Config cfg;
    cfg.diskDir = dir;
    WarmStateStore writer(cfg);
    writer.put(key, pagedSnapshot("blob"));
    return writer.diskPath(key);
}

TEST(WarmStateCodec, SnapshotsSharingPagesChargePageDataOnce)
{
    // The facade's charge: blob bytes and page addresses per snapshot,
    // page data once however many resident snapshots share it.
    WarmSnapshot a = pagedSnapshot("ab");
    WarmSnapshot b{"cd", a.pages};
    const size_t pages = a.pages.size();
    ASSERT_EQ(pages, 2u);
    WarmStateStore store;
    store.put(wkeyAt(0), std::move(a));
    const size_t first =
        2 + pages * (sizeof(Addr) + sizeof(FunctionalMemory::Page));
    EXPECT_EQ(store.residentBytes(), first);
    store.put(wkeyAt(1), std::move(b));
    EXPECT_EQ(store.residentBytes(), first + 2 + pages * sizeof(Addr));
}

TEST(WarmStateCodec, PayloadShapeDefectsAreCorruptAndDropped)
{
    // Each edit keeps the frame valid, so only the snapshot decoder can
    // refuse it. Payload layout: [u64 blob len]["blob"][u64 page count]
    // then (u64 addr, raw page) per page.
    const std::string dir = freshDir("warm_state_codec");
    const size_t count_at = 8 + 4;
    const size_t page0_at = count_at + 8;
    const size_t page1_at = page0_at + 8 + sizeof(FunctionalMemory::Page);
    using Edit = std::function<void(std::vector<char> &)>;
    const std::vector<std::pair<std::string, Edit>> cases = {
        {"overruns the payload",
         [](std::vector<char> &p) {
             const uint64_t big = p.size();
             std::memcpy(p.data(), &big, 8);
         }},
        {"disagrees with page count",
         [&](std::vector<char> &p) {
             const uint64_t n = 3;
             std::memcpy(p.data() + count_at, &n, 8);
         }},
        {"disagrees with page count",
         [](std::vector<char> &p) { p.pop_back(); }},
        {"not strictly ascending",
         [&](std::vector<char> &p) {
             std::swap_ranges(p.begin() + page0_at, p.begin() + page0_at + 8,
                              p.begin() + page1_at);
         }},
    };
    for (const auto &[what, edit] : cases) {
        SCOPED_TRACE(what);
        editPayload(writePagedRecord(dir, wkeyAt(0)), edit);
        WarmStateStore::Config cfg;
        cfg.diskDir = dir;
        WarmStateStore store(cfg);
        auto loaded = store.loadDiskChecked(wkeyAt(0));
        ASSERT_FALSE(loaded.ok());
        EXPECT_EQ(loaded.error().category, ErrorCategory::TraceCorrupt);
        EXPECT_NE(loaded.error().message.find(what), std::string::npos)
            << loaded.error().message;
        EXPECT_EQ(store.find(wkeyAt(0)), nullptr);
        EXPECT_EQ(store.stats().corrupt, 1u);
    }
    std::filesystem::remove_all(dir);
}

TEST(WarmStateCodec, WindowFaultTargetCorruptsOnlyWindowReads)
{
    // Every snapshot read honours "warm-state-store" (the kind's
    // target, pinned in fault_injection_test); window-boundary reads
    // (windowIndex >= 1) also honour "warm-state-window", so the
    // global-warmup restore still succeeds under it.
    const std::string dir = freshDir("warm_state_inject_window");
    WarmStateKey window = wkeyAt(1);
    window.windowIndex = 1;
    writePagedRecord(dir, wkeyAt(0));
    writePagedRecord(dir, window);
    auto parsed = FaultPlan::parse("state-corrupt:warm-state-window");
    ASSERT_TRUE(parsed.ok());
    const FaultPlan plan = std::move(parsed).value();
    WarmStateStore::Config cfg;
    cfg.diskDir = dir;
    cfg.plan = &plan;
    WarmStateStore store(cfg);
    auto win = store.loadDiskChecked(window);
    ASSERT_FALSE(win.ok());
    EXPECT_EQ(win.error().category, ErrorCategory::TraceCorrupt);
    EXPECT_NE(win.error().message.find("injected"), std::string::npos);
    EXPECT_TRUE(store.loadDiskChecked(wkeyAt(0)).ok());
    std::filesystem::remove_all(dir);
}

// -------------------- Component round trips ----------------------

/**
 * save → load into a fresh instance → save must be byte-identical:
 * with that, a restored component is indistinguishable from the
 * warmed one it replaced, by induction over any later work.
 */
template <typename Warmed, typename Fresh>
void
expectRoundTrip(const Warmed &warmed, Fresh &fresh,
                const std::string &what)
{
    StateSink a;
    warmed.saveWarmState(a);
    EXPECT_GT(a.size(), 0u) << what;
    StateSource src(a.bytes());
    ASSERT_TRUE(fresh.loadWarmState(src)) << what;
    EXPECT_TRUE(src.exhausted())
        << what << ": loader must consume its whole section";
    StateSink b;
    fresh.saveWarmState(b);
    EXPECT_EQ(a.bytes(), b.bytes()) << what;
}

TEST(WarmStateComponents, EveryWarmedComponentRoundTripsByteIdentical)
{
    // A real warming pass over the full CATCH rig (store-backed
    // stream, criticality query wired into the hierarchy, TACT in
    // warming mode) leaves every component with nontrivial state; each
    // must then survive save → load → save bit-for-bit.
    const size_t total = kInstr + kWarm;
    SimConfig cfg = withCatch(baselineSkx());
    ChunkStore chunks;

    auto wl = makeWorkload("mcf");
    TraceStream stream(*wl, total, TraceStream::kDefaultChunkOps,
                       std::function<double()>(), &chunks);
    CacheHierarchy hierarchy(cfg);
    BranchPredictor predictor;
    CriticalTable table(cfg.criticality);
    hierarchy.setCriticalQuery(
        [&table](CoreId, Addr pc) { return table.isCritical(pc); });
    Tact tact(cfg.tact, 0, hierarchy,
              [&table](Addr pc) { return table.isCritical(pc); },
              stream.mem().get());
    tact.setWarming(true);
    FastForward ff(0, hierarchy, predictor, &tact);
    ff.bind(stream);

    // Seed the critical table so entries span confidence levels and
    // the warm pass sees live critical PCs through the query hook.
    for (int rep = 0; rep < 3; ++rep)
        for (Addr pc = 0x400000; pc < 0x400000 + 40 * 4; pc += 4)
            if (rep < 1 + static_cast<int>(pc % 3))
                table.record(pc);
    const size_t end = ff.warm(0, kWarm, 0);
    ASSERT_GT(end, 0u);
    table.tick(kWarm);

    // Fresh instances, constructed exactly like a restoring run would.
    auto wl2 = makeWorkload("mcf");
    TraceStream stream2(*wl2, total, TraceStream::kDefaultChunkOps,
                        std::function<double()>(), &chunks);
    CacheHierarchy hierarchy2(cfg);
    BranchPredictor predictor2;
    CriticalTable table2(cfg.criticality);
    Tact tact2(cfg.tact, 0, hierarchy2,
               [&table2](Addr pc) { return table2.isCritical(pc); },
               stream2.mem().get());
    FastForward ff2(0, hierarchy2, predictor2, &tact2);
    ff2.bind(stream2);

    // Snapshot order: the stream first (TACT's feeder reads its
    // functional memory), then the independent components. The stream
    // round-trips in two pieces: the frontier blob through the sink,
    // and the memory as a COW page image the restore adopts.
    {
        StateSink a;
        stream.saveWarmState(a);
        EXPECT_GT(a.size(), 0u) << "TraceStream";
        FunctionalMemory::PageImage pages = stream.mem()->snapshotPages();
        StateSource src(a.bytes());
        ASSERT_TRUE(stream2.loadWarmState(src, pages)) << "TraceStream";
        EXPECT_TRUE(src.exhausted())
            << "TraceStream: loader must consume its whole section";
        StateSink b;
        stream2.saveWarmState(b);
        EXPECT_EQ(a.bytes(), b.bytes()) << "TraceStream";
        // The adopted image serializes identically from both memories:
        // the restore shared pages, it did not reinterpret them.
        StateSink ma, mb;
        FunctionalMemory::savePages(pages, ma);
        FunctionalMemory::savePages(stream2.mem()->snapshotPages(), mb);
        EXPECT_EQ(ma.bytes(), mb.bytes()) << "TraceStream memory image";
    }
    expectRoundTrip(hierarchy, hierarchy2, "CacheHierarchy");
    expectRoundTrip(predictor, predictor2, "BranchPredictor");
    expectRoundTrip(table, table2, "CriticalTable");
    expectRoundTrip(tact, tact2, "Tact");
    expectRoundTrip(ff, ff2, "FastForward");

    // The restored table answers queries identically, stats included.
    EXPECT_EQ(table2.activeCount(), table.activeCount());
    EXPECT_EQ(table2.stats().queries, table.stats().queries);
    EXPECT_EQ(table2.stats().queryHits, table.stats().queryHits);
}

TEST(WarmStateComponents, GeometryMismatchRefusesTheLoad)
{
    // A snapshot taken from a differently shaped table must be refused
    // by the loader, not reinterpreted — the digest makes this key
    // collision impossible in production, but the loader is the last
    // line of defense against a format bug.
    SimConfig cfg = withCatch(baselineSkx());
    CriticalTable small(cfg.criticality);
    small.record(0x400000);
    StateSink sink;
    small.saveWarmState(sink);

    CriticalityConfig big_cfg = cfg.criticality;
    big_cfg.tableEntries *= 2;
    CriticalTable big(big_cfg);
    StateSource src(sink.bytes());
    EXPECT_FALSE(big.loadWarmState(src))
        << "a mis-sized snapshot must be rejected, not reinterpreted";
}

TEST(WarmStateComponents, SnapshotBlobIsAPureFunctionOfTheKey)
{
    // Two independent cold runs in separate processes-worth of state
    // must publish byte-identical records at the same deterministic
    // paths — the property that makes sharing a disk tier across
    // machines and runs sound. With per-window keys a single sampled
    // run publishes the global-warmup snapshot plus one record per
    // inter-window gap; every one of them must reproduce.
    SimConfig cfg = sampledCfg(withCatch(baselineSkx()));
    const std::vector<std::string> names = {"mcf"};
    std::vector<std::string> dirs;
    for (int rep = 0; rep < 2; ++rep) {
        const std::string dir =
            freshDir("warm_state_pure_" + std::to_string(rep));
        ChunkStore chunks;
        WarmStateStore::Config store_cfg = ungatedWindows();
        store_cfg.diskDir = dir;
        WarmStateStore warm(store_cfg);
        auto out = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                        optsWithStores(&chunks, &warm));
        ASSERT_TRUE(out[0].ok());
        EXPECT_GE(warm.stats().puts, 2u)
            << "expected the global snapshot plus window boundaries";
        dirs.push_back(dir);
    }
    std::vector<std::vector<std::filesystem::path>> records;
    for (const auto &dir : dirs) {
        std::vector<std::filesystem::path> files;
        for (const auto &e : std::filesystem::directory_iterator(dir))
            files.push_back(e.path());
        std::sort(files.begin(), files.end());
        ASSERT_GE(files.size(), 2u) << dir;
        records.push_back(std::move(files));
    }
    ASSERT_EQ(records[0].size(), records[1].size())
        << "both runs must publish the same snapshot set";
    for (size_t i = 0; i < records[0].size(); ++i) {
        EXPECT_EQ(records[0][i].filename(), records[1][i].filename())
            << "the record path is part of the deterministic contract";
        EXPECT_EQ(readAll(records[0][i]), readAll(records[1][i]))
            << records[0][i].filename()
            << ": independent warms must serialize bitwise-identical "
               "state";
    }
    for (const auto &dir : dirs)
        std::filesystem::remove_all(dir);
}

// ------------------ Campaign equivalence -------------------------

/**
 * The acceptance matrix: a store-less baseline, then the warm-state
 * store off, cold, warm and disk-backed, read back from disk by a fresh
 * store (an empty memory tier, so the records themselves must restore
 * to the golden), and eviction-thrashing at jobs 1/8/16.
 */
void
expectWarmStateEquivalence(const SimConfig &cfg)
{
    const std::string dir = freshDir("warm_state_equiv_" + cfg.name);
    ChunkStore chunks; // warm-state eligibility needs a store-backed stream
    WarmStateStore::Config disk_cfg = ungatedWindows();
    disk_cfg.diskDir = dir;
    WarmStateStore warm(disk_cfg); // shared across job counts: stays warm
    WarmStateStore::Config tiny_cfg = ungatedWindows();
    tiny_cfg.memBudgetBytes = 1; // evicts after every insertion
    WarmStateStore evicting(tiny_cfg);
    std::vector<std::unique_ptr<WarmStateStore>> cold, readers;
    auto fresh = [&](std::vector<std::unique_ptr<WarmStateStore>> &v,
                     const WarmStateStore::Config &c) {
        return optsWithStores(
            &chunks,
            v.emplace_back(std::make_unique<WarmStateStore>(c)).get());
    };
    expectStoreStatesMatch(
        cfg, optsWithStores(nullptr, nullptr),
        {[&] { return optsWithStores(&chunks, nullptr); },
         [&] { return fresh(cold, ungatedWindows()); },
         [&] { return optsWithStores(&chunks, &warm); },
         [&] { return fresh(readers, disk_cfg); },
         [&] { return optsWithStores(&chunks, &evicting); }},
        kInstr, kWarm);
    for (const auto &c : cold)
        EXPECT_GT(c->stats().puts, 0u);
    for (const auto &r : readers) {
        EXPECT_GT(r->stats().diskHits, 0u) << "the disk tier served";
        EXPECT_EQ(r->stats().corrupt, 0u);
    }
    EXPECT_GT(warm.stats().hits, 0u) << "the warm store actually served";
    EXPECT_GT(evicting.stats().evictions, 0u)
        << "the tiny store actually thrashed";
    std::filesystem::remove_all(dir);
}

TEST(WarmStateEquivalence, SampledBaselineCampaigns)
{
    expectWarmStateEquivalence(sampledCfg(baselineSkx()));
}

TEST(WarmStateEquivalence, SampledCatchCampaigns)
{
    // The CATCH config warms the criticality table and every TACT
    // learner — the full snapshot surface.
    expectWarmStateEquivalence(sampledCfg(withCatch(baselineSkx())));
}

TEST(WarmStateEquivalence, IneligibleRunsNeverConsultTheStore)
{
    // Detailed mode has no warming boundary; a run without a chunk
    // store cannot restore its stream; a zero-warmup run has nothing
    // to memoize. Each must leave the store completely untouched.
    const std::vector<std::string> names = {"mcf"};
    ChunkStore chunks;
    WarmStateStore store;

    SimConfig detailed = withCatch(baselineSkx());
    auto d = runWorkloadsIsolated(detailed, names, kInstr, kWarm, 1,
                                  optsWithStores(&chunks, &store));
    ASSERT_TRUE(d[0].ok());

    SimConfig sampled = sampledCfg(withCatch(baselineSkx()));
    auto no_chunks = runWorkloadsIsolated(sampled, names, kInstr, kWarm,
                                          1,
                                          optsWithStores(nullptr, &store));
    ASSERT_TRUE(no_chunks[0].ok());

    auto no_warmup = runWorkloadsIsolated(sampled, names, kInstr, 0, 1,
                                          optsWithStores(&chunks, &store));
    ASSERT_TRUE(no_warmup[0].ok());

    auto s = store.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.puts, 0u);
}

TEST(WarmStateEquivalence, PerRunProfileCountersAttributeHitsAndMisses)
{
    // The profile counters are per-run, never campaign-cumulative: a
    // cold run then a warm run against the same store must report
    // miss-only then hit-only, with the snapshot footprint both times.
    SimConfig cfg = sampledCfg(withCatch(baselineSkx()));
    const std::vector<std::string> names = {"mcf"};
    ChunkStore chunks;
    WarmStateStore store(ungatedWindows());
    IsolationOptions opts = optsWithStores(&chunks, &store);
    opts.profile = true;

    auto cold = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1, opts);
    ASSERT_TRUE(cold[0].ok());
    ASSERT_TRUE(cold[0].profile.has_value());
    EXPECT_EQ(cold[0].profile->warmStateMisses, 1u);
    EXPECT_EQ(cold[0].profile->warmStateHits, 0u);
    EXPECT_GT(cold[0].profile->warmStateBytes, 0u);
    // Window-boundary attribution is split from the global counters:
    // the cold run misses (and publishes) every inter-window gap.
    EXPECT_GT(cold[0].profile->warmStateWindowMisses, 0u);
    EXPECT_EQ(cold[0].profile->warmStateWindowHits, 0u);
    EXPECT_GT(cold[0].profile->warmStateWindowBytes, 0u);

    auto warm = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1, opts);
    ASSERT_TRUE(warm[0].ok());
    ASSERT_TRUE(warm[0].profile.has_value());
    EXPECT_EQ(warm[0].profile->warmStateHits, 1u);
    EXPECT_EQ(warm[0].profile->warmStateMisses, 0u)
        << "a cumulative counter would still show the cold miss";
    EXPECT_EQ(warm[0].profile->warmStateBytes,
              cold[0].profile->warmStateBytes)
        << "hit and miss account the same snapshot";
    EXPECT_EQ(warm[0].profile->warmStateWindowHits,
              cold[0].profile->warmStateWindowMisses)
        << "every gap the cold run published must restore warm";
    EXPECT_EQ(warm[0].profile->warmStateWindowMisses, 0u);
    EXPECT_EQ(warm[0].profile->warmStateWindowBytes,
              cold[0].profile->warmStateWindowBytes);
    expectBitwiseEqual(warm[0].result, cold[0].result);
}

TEST(WarmStateEquivalence, EligibilityGatesSkipUnprofitableWindows)
{
    // A window restore costs a near-constant blob parse plus an
    // O(pages) map adoption, so it only pays against long warming
    // gaps over modest page maps. Both gates must leave results
    // bitwise-identical — they redirect the simulator to re-warm,
    // which derives the same state — while keeping window records
    // out of the store.
    SimConfig cfg = sampledCfg(withCatch(baselineSkx()));
    const std::vector<std::string> names = {"mcf"};
    ChunkStore chunks;
    auto baseline = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                         optsWithStores(&chunks, nullptr));
    const uint64_t golden = campaignHash(baseline);

    // Default config: the test schedule's 1000-instruction slack is
    // below the minWindowGapInstrs floor, so only the global-warmup
    // snapshot is published and no window counter moves. Page cap:
    // with the slack floor lifted but a 1-page cap, mcf's
    // multi-thousand-page map disqualifies every gap the same way.
    // Both stores serve the global snapshot on the second run.
    WarmStateStore::Config capped = ungatedWindows();
    capped.maxWindowPages = 1;
    for (const WarmStateStore::Config &store_cfg :
         {WarmStateStore::Config(), capped}) {
        WarmStateStore store(store_cfg);
        IsolationOptions opts = optsWithStores(&chunks, &store);
        opts.profile = true;
        for (int rep = 0; rep < 2; ++rep) {
            auto out = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                            opts);
            ASSERT_TRUE(out[0].ok());
            EXPECT_EQ(campaignHash(out), golden);
            ASSERT_TRUE(out[0].profile.has_value());
            EXPECT_EQ(out[0].profile->warmStateHits, rep == 1 ? 1u : 0u);
            EXPECT_EQ(out[0].profile->warmStateWindowHits, 0u);
            EXPECT_EQ(out[0].profile->warmStateWindowMisses, 0u);
            EXPECT_EQ(out[0].profile->warmStateWindowBytes, 0u);
        }
        EXPECT_EQ(store.stats().puts, 1u)
            << "a gated window must not publish a record";
    }
}

// ---------------------- COW aliasing safety ----------------------

/** Serializes whatever `find(key)` currently holds, for before/after
 *  comparisons that prove restored runs never mutate the snapshot. */
std::string
snapshotImageBytes(WarmStateStore &store, const WarmStateKey &key)
{
    auto snap = store.find(key);
    EXPECT_NE(snap, nullptr);
    StateSink sink;
    FunctionalMemory::savePages(snap->pages, sink);
    return sink.take();
}

TEST(WarmStateCow, DiskReplayedSnapshotIsIsolatedFromRestoredWrites)
{
    // Cross-process variant: a snapshot replayed from the disk tier by
    // a fresh store must also be isolated from a restored run's writes
    // (fresh pages allocated off the record, then COW-shared onward).
    const std::string dir = freshDir("warm_state_cow_disk");
    FunctionalMemory warmed;
    for (Addr a = 0; a < 8 * kPageBytes; a += 128)
        warmed.write(a, ~a);
    const WarmStateKey key = wkeyAt(3);
    {
        WarmStateStore::Config cfg;
        cfg.diskDir = dir;
        WarmStateStore writer(cfg);
        writer.put(key, WarmSnapshot{"blob", warmed.snapshotPages()});
    }
    WarmStateStore::Config cfg;
    cfg.diskDir = dir;
    WarmStateStore reader(cfg);
    const std::string before = snapshotImageBytes(reader, key);
    EXPECT_EQ(reader.stats().diskHits, 1u);

    auto snap = reader.find(key);
    ASSERT_NE(snap, nullptr);
    FunctionalMemory run;
    run.restorePages(snap->pages);
    for (Addr a = 0; a < 8 * kPageBytes; a += kPageBytes)
        run.write(a, 0xfeed);
    EXPECT_EQ(snapshotImageBytes(reader, key), before)
        << "writes after a disk replay must clone, not mutate";
    std::filesystem::remove_all(dir);
}

TEST(WarmStateCow, ConcurrentRestoresOfOneSnapshotAreRaceFree)
{
    // TSan stress: many threads restore the same resident snapshot and
    // immediately write every page. Refcount traffic on the shared
    // handles and the clone-on-first-write path must be data-race free
    // (shared_ptr counts are atomic; a count of 1 proves exclusivity).
    constexpr size_t kPages = 32;
    FunctionalMemory warmed;
    for (Addr a = 0; a < kPages * kPageBytes; a += 8)
        warmed.write(a, a * 2654435761ULL);

    WarmStateStore store;
    const WarmStateKey key = wkeyAt(7);
    store.put(key, WarmSnapshot{"blob", warmed.snapshotPages()});
    const std::string before = snapshotImageBytes(store, key);

    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&store, &key, t]() {
            auto snap = store.find(key);
            ASSERT_NE(snap, nullptr);
            FunctionalMemory run;
            run.restorePages(snap->pages);
            for (Addr a = 0; a < kPages * kPageBytes; a += kPageBytes) {
                // Reads see the warmed values, writes stay private.
                ASSERT_EQ(run.read(a + 8), (a + 8) * 2654435761ULL);
                run.write(a, 0x1000u + static_cast<uint64_t>(t));
            }
            for (Addr a = 0; a < kPages * kPageBytes; a += kPageBytes)
                ASSERT_EQ(run.read(a), 0x1000u + static_cast<uint64_t>(t));
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(snapshotImageBytes(store, key), before);
}

} // namespace
} // namespace catchsim
