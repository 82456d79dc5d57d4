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
 *  3. Record codec — snapshots sharing pages charge them once, and
 *     payload shape defects (blob overrun, page section, page order)
 *     behind a valid frame are corrupt and dropped. The LRU, frame
 *     validation and corruption containment themselves are pinned
 *     once, for all stores, by tests/content_store_test.cc.
 *  5. Component round trips — every warmed component's save → load →
 *     save is byte-identical through a freshly constructed instance,
 *     so a restore is indistinguishable from the warm it replaced; the
 *     bytes of each section are pinned by an FNV-1a golden, and a
 *     truncated section or an impossible container count is refused.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.hh"
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

// -------------------- Component round trips ----------------------

using PageImage = FunctionalMemory::PageImage;

/** A page image's addresses and words, deep-copied. */
using ImageContents = std::vector<std::pair<Addr, std::vector<uint64_t>>>;

/** Deep copy of @p image, for comparisons of what the shared handles
 *  point at. */
ImageContents
imageContents(const PageImage &image)
{
    ImageContents out;
    for (const auto &[addr, page] : image)
        out.emplace_back(addr,
                         std::vector<uint64_t>(std::begin(page->words),
                                               std::end(page->words)));
    return out;
}

/** Every warmed component over a store-backed mcf stream, built the
 *  way a restoring run builds them; warm() runs a real warming pass
 *  over the full CATCH rig so each one holds nontrivial state. */
struct WarmRig
{
    SimConfig cfg = withCatch(baselineSkx());
    std::unique_ptr<Workload> wl = makeWorkload("mcf");
    TraceStream stream;
    CacheHierarchy hierarchy{cfg};
    BranchPredictor predictor;
    CriticalTable table{cfg.criticality};
    Tact tact;
    FastForward ff;

    explicit WarmRig(ChunkStore &chunks)
        : stream(*wl, kInstr + kWarm, TraceStream::kDefaultChunkOps,
                 std::function<double()>(), &chunks),
          tact(cfg.tact, 0, hierarchy,
               [this](Addr pc) { return table.isCritical(pc); },
               stream.mem().get()),
          ff(0, hierarchy, predictor, &tact)
    {
        ff.bind(stream);
    }

    // The TACT and criticality callbacks hold this rig's address.
    WarmRig(const WarmRig &) = delete;
    WarmRig &operator=(const WarmRig &) = delete;

    void
    warm()
    {
        // Criticality query wired into the hierarchy, TACT in warming
        // mode, and a critical table seeded so entries span confidence
        // levels and the warm pass sees live critical PCs.
        hierarchy.setCriticalQuery(
            [this](CoreId, Addr pc) { return table.isCritical(pc); });
        tact.setWarming(true);
        for (int rep = 0; rep < 3; ++rep)
            for (Addr pc = 0x400000; pc < 0x400000 + 40 * 4; pc += 4)
                if (rep < 1 + static_cast<int>(pc % 3))
                    table.record(pc);
        ASSERT_GT(ff.warm(0, kWarm, 0), 0u);
        table.tick(kWarm);
    }
};

/** One snapshot section: @p save writes a rig's section bytes, and
 *  @p load parses them into a rig (the stream restores its memory from
 *  the page image). Listed in blob order: the stream first (TACT's
 *  feeder reads its functional memory), then the independent
 *  components. */
struct WarmSection
{
    const char *name;
    uint64_t golden; ///< FNV-1a of the warmed rig's section bytes
    void (*save)(const WarmRig &, StateSink &);
    bool (*load)(WarmRig &, StateSource &, const PageImage &);
};

const WarmSection kWarmSections[] = {
    {"TraceStream", 16866251938782235869ULL,
     [](const WarmRig &r, StateSink &s) { r.stream.saveWarmState(s); },
     [](WarmRig &r, StateSource &s, const PageImage &pages) {
         return r.stream.loadWarmState(s, pages);
     }},
    {"CacheHierarchy", 17296264305588833786ULL,
     [](const WarmRig &r, StateSink &s) { r.hierarchy.saveWarmState(s); },
     [](WarmRig &r, StateSource &s, const PageImage &) {
         return r.hierarchy.loadWarmState(s);
     }},
    {"BranchPredictor", 12657230679616794026ULL,
     [](const WarmRig &r, StateSink &s) { r.predictor.saveWarmState(s); },
     [](WarmRig &r, StateSource &s, const PageImage &) {
         return r.predictor.loadWarmState(s);
     }},
    {"CriticalTable", 16075592895956768789ULL,
     [](const WarmRig &r, StateSink &s) { r.table.saveWarmState(s); },
     [](WarmRig &r, StateSource &s, const PageImage &) {
         return r.table.loadWarmState(s);
     }},
    {"Tact", 16623756835988318827ULL,
     [](const WarmRig &r, StateSink &s) { r.tact.saveWarmState(s); },
     [](WarmRig &r, StateSource &s, const PageImage &) {
         return r.tact.loadWarmState(s);
     }},
    {"FastForward", 18019099537021975083ULL,
     [](const WarmRig &r, StateSink &s) { r.ff.saveWarmState(s); },
     [](WarmRig &r, StateSource &s, const PageImage &) {
         return r.ff.loadWarmState(s);
     }},
};

/**
 * save → load into a fresh instance → save must be byte-identical:
 * with that, a restored component is indistinguishable from the
 * warmed one it replaced, by induction over any later work. The
 * per-section FNV-1a goldens pin the bytes themselves, so a layout
 * change made the same way in both halves still shows, and records
 * written by an earlier build keep loading.
 */
TEST(WarmStateComponents, EveryWarmedComponentRoundTripsByteIdentical)
{
    ChunkStore chunks;
    WarmRig warmed(chunks);
    ASSERT_NO_FATAL_FAILURE(warmed.warm());
    WarmRig fresh(chunks);
    const PageImage pages = warmed.stream.mem()->snapshotPages();

    for (const WarmSection &sec : kWarmSections) {
        SCOPED_TRACE(sec.name);
        StateSink a;
        sec.save(warmed, a);
        EXPECT_GT(a.size(), 0u);
        EXPECT_EQ(fnv1a(a.bytes().data(), a.size()), sec.golden)
            << a.size() << " bytes";
        StateSource src(a.bytes());
        ASSERT_TRUE(sec.load(fresh, src, pages));
        EXPECT_TRUE(src.exhausted())
            << "loader must consume its whole section";
        StateSink b;
        sec.save(fresh, b);
        EXPECT_EQ(a.bytes(), b.bytes());
    }
    // The stream adopted the image's pages; it did not reinterpret them.
    EXPECT_TRUE(imageContents(pages) ==
                imageContents(fresh.stream.mem()->snapshotPages()));

    // The restored table answers queries identically, stats included.
    EXPECT_EQ(fresh.table.activeCount(), warmed.table.activeCount());
    EXPECT_EQ(fresh.table.stats().queries, warmed.table.stats().queries);
    EXPECT_EQ(fresh.table.stats().queryHits,
              warmed.table.stats().queryHits);
}

/** Byte offsets of the Tact section's container counts, walked over
 *  the section's own bytes with each element's serialized size: the
 *  trigger-cache size, TactCross's three maps and its first firing
 *  list, TactSelf's map, and TactFeeder's register file, two maps and
 *  first target list. */
std::vector<size_t>
tactCountOffsets(const std::string &bytes)
{
    std::vector<size_t> counts;
    size_t at = 0;
    // Records the count at the cursor and steps over it and over the
    // @p elem-byte elements it counts; returns the count.
    auto count = [&](size_t elem) {
        uint64_t n = 0;
        if (at + 8 <= bytes.size())
            std::memcpy(&n, bytes.data() + at, 8);
        counts.push_back(at);
        at += 8 + n * elem;
        return n;
    };
    // A map of u64 keys to (head bytes, list of u64): only the first
    // list's count is recorded.
    auto lists = [&](size_t head) {
        const uint64_t n = count(0);
        for (uint64_t i = 0; i < n && at < bytes.size(); ++i) {
            at += 8 + head;
            const size_t before = counts.size();
            count(8);
            if (i > 0)
                counts.resize(before);
        }
    };
    at += 4 + 1 + 4 + 4; // TACT tag, cross flag, TCRS tag, TRGC tag
    count(53);           // trigger entries
    at += 8;             // trigger clock
    count(51);           // cross targets
    count(16);           // trigger last addresses
    lists(0);            // firing lists
    at += 8 + 1 + 4;     // cross issued, self flag, TSLF tag
    count(29);           // self targets
    at += 8 + 1 + 4;     // self issued, feeder flag, TFDR tag
    count(16);           // register file
    at += 8;             // seq
    count(64);           // feeder targets
    lists(8 + 1);        // feeders: value, flag, target list
    at += 8 + 8 + 8 + 8; // feeder issued, runaheads, code stalls, lines
    EXPECT_EQ(at, bytes.size()) << "the walk must cover the section";
    return counts;
}

TEST(WarmStateComponents, DamagedSectionsAreRefused)
{
    // Records are checksummed, so a damaged section means a format bug;
    // the loader must still refuse it without reading past the end or
    // allocating for a count the bytes cannot hold (ASan runs this).
    ChunkStore chunks;
    WarmRig warmed(chunks);
    ASSERT_NO_FATAL_FAILURE(warmed.warm());
    WarmRig fresh(chunks);
    const PageImage pages = warmed.stream.mem()->snapshotPages();

    for (const WarmSection &sec : kWarmSections) {
        SCOPED_TRACE(sec.name);
        StateSink sink;
        sec.save(warmed, sink);
        const std::string &bytes = sink.bytes();
        std::vector<size_t> cuts = {0, 1, 3, 4, 5, 12, bytes.size() - 1};
        for (size_t k = 1; k < 16; ++k)
            cuts.push_back(bytes.size() * k / 16);
        for (size_t cut : cuts) {
            StateSource src(bytes.data(), std::min(cut, bytes.size() - 1));
            EXPECT_FALSE(sec.load(fresh, src, pages))
                << "truncated at " << cut;
        }

        // Fixed-geometry sections lead with a count they must match;
        // TACT's maps and lists carry counts the loader must bound.
        std::vector<size_t> counts;
        if (sec.name == std::string("CacheHierarchy"))
            counts = {4 + 4 + 1 + 4}; // HIER tag, cores, hasL2, CACH tag
        else if (sec.name == std::string("BranchPredictor") ||
                 sec.name == std::string("CriticalTable"))
            counts = {4};
        else if (sec.name == std::string("Tact"))
            counts = tactCountOffsets(bytes);
        for (size_t at : counts) {
            std::string bad = bytes;
            const uint64_t huge = uint64_t(1) << 40;
            std::memcpy(bad.data() + at, &huge, 8);
            StateSource src(bad);
            EXPECT_FALSE(sec.load(fresh, src, pages)) << "count at " << at;
        }
    }
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
    // machines and runs sound.
    SimConfig cfg = sampledCfg(withCatch(baselineSkx()));
    const std::vector<std::string> names = {"mcf"};
    std::vector<std::string> dirs;
    for (int rep = 0; rep < 2; ++rep) {
        const std::string dir =
            freshDir("warm_state_pure_" + std::to_string(rep));
        ChunkStore chunks;
        WarmStateStore::Config store_cfg;
        store_cfg.diskDir = dir;
        WarmStateStore warm(store_cfg);
        auto out = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                        optsWithStores(&chunks, &warm));
        ASSERT_TRUE(out[0].ok());
        EXPECT_EQ(warm.stats().puts, 1u)
            << "expected the global-warmup snapshot alone";
        dirs.push_back(dir);
    }
    std::vector<std::vector<std::filesystem::path>> records;
    for (const auto &dir : dirs) {
        std::vector<std::filesystem::path> files;
        for (const auto &e : std::filesystem::directory_iterator(dir))
            files.push_back(e.path());
        std::sort(files.begin(), files.end());
        ASSERT_EQ(files.size(), 1u) << dir;
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
    WarmStateStore::Config disk_cfg;
    disk_cfg.diskDir = dir;
    WarmStateStore warm(disk_cfg); // shared across job counts: stays warm
    WarmStateStore::Config tiny_cfg;
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
         [&] { return fresh(cold, WarmStateStore::Config()); },
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
    // cold run then a warm run against the same store must report one
    // global miss then one global hit, with the snapshot footprint
    // both times. A 100k-instruction interval leaves each period
    // ~96k instructions of inter-window warming, yet only the global
    // boundary memoizes: each run consults the store exactly once.
    SimConfig cfg = withCatch(baselineSkx());
    cfg.sampling.mode = SampleMode::Sampled;
    cfg.sampling.intervalInstrs = 100000;
    const uint64_t instrs = 3 * cfg.sampling.intervalInstrs;
    const std::vector<std::string> names = {"mcf"};
    ChunkStore chunks;
    WarmStateStore store;
    IsolationOptions opts = optsWithStores(&chunks, &store);
    opts.profile = true;

    auto cold = runWorkloadsIsolated(cfg, names, instrs, kWarm, 1, opts);
    ASSERT_TRUE(cold[0].ok());
    ASSERT_TRUE(cold[0].profile.has_value());
    EXPECT_GE(cold[0].result.sample.windows, 3u);
    EXPECT_EQ(cold[0].profile->warmStateMisses, 1u);
    EXPECT_EQ(cold[0].profile->warmStateHits, 0u);
    EXPECT_GT(cold[0].profile->warmStateBytes, 0u);
    EXPECT_EQ(store.stats().puts, 1u);

    auto warm = runWorkloadsIsolated(cfg, names, instrs, kWarm, 1, opts);
    ASSERT_TRUE(warm[0].ok());
    ASSERT_TRUE(warm[0].profile.has_value());
    EXPECT_EQ(warm[0].profile->warmStateHits, 1u);
    EXPECT_EQ(warm[0].profile->warmStateMisses, 0u)
        << "a cumulative counter would still show the cold miss";
    EXPECT_EQ(warm[0].profile->warmStateBytes,
              cold[0].profile->warmStateBytes)
        << "hit and miss account the same snapshot";
    EXPECT_EQ(store.stats().puts, 1u) << "the warm run published nothing";
    for (const auto *run : {&cold[0], &warm[0]}) {
        EXPECT_EQ(run->profile->warmStateWindowHits, 0u);
        EXPECT_EQ(run->profile->warmStateWindowMisses, 0u);
    }
    expectBitwiseEqual(warm[0].result, cold[0].result);
}

// ---------------------- COW aliasing safety ----------------------

/** Deep copy of whatever `find(key)` currently holds, for before/after
 *  comparisons that prove restored runs never mutate the snapshot. */
ImageContents
snapshotImage(WarmStateStore &store, const WarmStateKey &key)
{
    auto snap = store.find(key);
    EXPECT_NE(snap, nullptr);
    return snap ? imageContents(snap->pages) : ImageContents();
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
    const auto before = snapshotImage(reader, key);
    EXPECT_EQ(reader.stats().diskHits, 1u);

    auto snap = reader.find(key);
    ASSERT_NE(snap, nullptr);
    FunctionalMemory run;
    run.restorePages(snap->pages);
    for (Addr a = 0; a < 8 * kPageBytes; a += kPageBytes)
        run.write(a, 0xfeed);
    EXPECT_TRUE(snapshotImage(reader, key) == before)
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
    const auto before = snapshotImage(store, key);

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
    EXPECT_TRUE(snapshotImage(store, key) == before);
}

} // namespace
} // namespace catchsim
