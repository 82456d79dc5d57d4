/**
 * @file
 * The chunk store's correctness contract, pinned exhaustively:
 *
 *  1. Equivalence — full-campaign SimResults are bitwise-identical with
 *     the store disabled, cold, warm, eviction-thrashing or disk-backed,
 *     at jobs 1/8/16, in detailed and sampled modes. The store may only
 *     ever be a speed lever, never a correctness hazard.
 *  2. Record codec — op-record defects behind a valid frame are
 *     corrupt, dropped and regenerated. The LRU, frame validation and
 *     corruption containment themselves are pinned once, for all
 *     stores, by tests/content_store_test.cc.
 *  3. Containment — a partly corrupted disk cache still streams the
 *     canonical op sequence, and the memory tier holds only decoded
 *     chunks.
 *  4. Bounded generation — every suite kernel streams a short trace
 *     through the store without generating past its chunk budget.
 *  5. Concurrency — consumer threads racing on a shared evicting disk
 *     store and a jobs=16 campaign (the TSan CI job runs the
 *     *Concurrent* cases).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_inject.hh"
#include "sim/configs.hh"
#include "sim/parallel_runner.hh"
#include "sim_result_compare.hh"
#include "store_test_util.hh"
#include "trace/chunk_store.hh"
#include "trace/suite.hh"
#include "trace/trace_stream.hh"
#include "trace/trace_view.hh"

namespace catchsim
{
namespace
{

constexpr uint64_t kInstr = 20000;
constexpr uint64_t kWarm = 5000;
constexpr size_t kChunk = 1024; // small power-of-two chunk for tests

ChunkKey
keyAt(const std::string &kernel, uint64_t index,
      uint32_t chunk_ops = kChunk)
{
    auto wl = makeWorkload(kernel);
    return ChunkKey{kernel, wl->seed(), chunk_ops, index};
}

std::vector<MicroOp>
drain(TraceStream &stream)
{
    std::vector<MicroOp> out;
    out.reserve(stream.size());
    TraceView view = stream.view();
    for (size_t p = 0; p < stream.size(); ++p) {
        stream.ensure(p);
        out.push_back(view.at(p));
    }
    return out;
}

void
expectOpsEqual(const std::vector<MicroOp> &got,
               const std::vector<MicroOp> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    // Field-wise, not memcmp: the struct carries tail padding.
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].pc, want[i].pc) << what << " op " << i;
        ASSERT_EQ(got[i].cls, want[i].cls) << what << " op " << i;
        ASSERT_EQ(got[i].memAddr, want[i].memAddr) << what << " op " << i;
        ASSERT_EQ(got[i].value, want[i].value) << what << " op " << i;
        ASSERT_EQ(got[i].dst, want[i].dst) << what << " op " << i;
        ASSERT_EQ(got[i].taken, want[i].taken) << what << " op " << i;
        for (uint32_t s = 0; s < kMaxSrcs; ++s)
            ASSERT_EQ(got[i].src[s], want[i].src[s])
                << what << " op " << i;
    }
}

// --------------------- ChunkGenerator ----------------------------

TEST(ChunkGenerator, ChunksAreThePrefixFunctionOfKernelAndSeed)
{
    // The store's addressing invariant: chunk k of (kernel, seed,
    // chunkOps) has one canonical content, independent of the
    // generator's chunk budget — kernels only observe done().
    // cactusADM's run() is one multi-row sweep, so it also shows the
    // budget stops a pass that would otherwise run far past it.
    for (const std::string name : {"mcf", "tpcc", "hplinpack",
                                   "cactusADM"}) {
        auto oracle_wl = makeWorkload(name);
        Trace oracle = oracle_wl->generate(4 * kChunk);

        for (uint64_t budget : {4, 64}) {
            const std::string what =
                name + " budget " + std::to_string(budget);
            auto wl = makeWorkload(name);
            ChunkGenerator gen(*wl, kChunk, budget);
            std::vector<MicroOp> got;
            for (uint64_t i = 0; i < 4; ++i) {
                EXPECT_EQ(gen.nextIndex(), i);
                std::vector<MicroOp> chunk = gen.next();
                ASSERT_EQ(chunk.size(), kChunk) << what;
                got.insert(got.end(), chunk.begin(), chunk.end());
            }
            expectOpsEqual(got, oracle.ops, what);

            // discard() + regenerate restarts at canonical chunk 0.
            gen.discard();
            EXPECT_FALSE(gen.started());
            std::vector<MicroOp> again = gen.next();
            expectOpsEqual(again,
                           {oracle.ops.begin(), oracle.ops.begin() + kChunk},
                           what + " after discard");
        }
    }
}

// ---------------------- Record codec -----------------------------

/** Writes one real chunk's record to @p dir and returns its path. */
std::string
writeOneRecord(const std::string &dir)
{
    auto wl = makeWorkload("mcf");
    ChunkGenerator gen(*wl, kChunk, 1);
    ChunkStore::Config cfg;
    cfg.diskDir = dir;
    ChunkStore writer(cfg);
    writer.put(keyAt("mcf", 0), gen.next());
    return writer.diskPath(keyAt("mcf", 0));
}

TEST(ChunkStoreCodec, OpRecordDefectIsCorruptAndDropped)
{
    // A checksum-valid record whose op carries an out-of-range class
    // must be refused by the op decoder, not replayed.
    const std::string dir = freshDir("chunk_store_op_defect");
    const std::string path = writeOneRecord(dir);
    editPayload(path, [](std::vector<char> &p) {
        p[3 * 8] = static_cast<char>(0xff); // op 0's class byte
    });
    ChunkStore::Config cfg;
    cfg.diskDir = dir;
    ChunkStore store(cfg);
    auto loaded = store.loadDiskChecked(keyAt("mcf", 0));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().category, ErrorCategory::TraceCorrupt);
    EXPECT_NE(loaded.error().message.find("op 0: "), std::string::npos)
        << loaded.error().message;
    EXPECT_EQ(store.find(keyAt("mcf", 0)), nullptr);
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));

    // A payload that is not a whole number of op records is refused
    // before any op is decoded.
    writeOneRecord(dir);
    editPayload(path, [](std::vector<char> &p) { p.pop_back(); });
    auto ragged = store.loadDiskChecked(keyAt("mcf", 0));
    ASSERT_FALSE(ragged.ok());
    EXPECT_NE(ragged.error().message.find("whole number of op records"),
              std::string::npos)
        << ragged.error().message;
    std::filesystem::remove_all(dir);
}

TEST(ChunkStoreEquivalence, CorruptedCacheRegeneratesBitwiseIdenticalStream)
{
    // End-to-end containment: corrupt three chunks of a warm disk cache
    // three different ways, then demand the stream still serve exactly
    // the canonical op sequence.
    const std::string dir = freshDir("chunk_store_regen");
    auto oracle_wl = makeWorkload("mcf");
    const size_t total = 5 * kChunk + 123;
    Trace oracle = oracle_wl->generate(total);

    {
        ChunkStore::Config cfg;
        cfg.diskDir = dir;
        ChunkStore warm(cfg);
        auto wl = makeWorkload("mcf");
        TraceStream stream(*wl, total, kChunk,
                           std::function<double()>(), &warm);
        drain(stream);
        EXPECT_EQ(stream.storeMisses(), 6u) << "cold store: all misses";
    }

    ChunkStore::Config cfg;
    cfg.diskDir = dir;
    ChunkStore store(cfg);
    { // chunk 1: truncation
        std::string p = store.diskPath(keyAt("mcf", 1));
        std::vector<char> bytes = readAll(p);
        bytes.resize(bytes.size() / 2);
        rewriteFile(p, bytes);
    }
    { // chunk 2: bit flip
        std::string p = store.diskPath(keyAt("mcf", 2));
        std::vector<char> bytes = readAll(p);
        bytes[10] ^= 0x01;
        rewriteFile(p, bytes);
    }
    // chunk 3: missing entirely
    std::filesystem::remove(store.diskPath(keyAt("mcf", 3)));

    auto wl = makeWorkload("mcf");
    TraceStream stream(*wl, total, kChunk, std::function<double()>(),
                       &store);
    std::vector<MicroOp> streamed = drain(stream);
    expectOpsEqual(streamed, oracle.ops, "regenerated stream");
    EXPECT_EQ(store.stats().corrupt, 2u)
        << "truncation and bit flip count; absence is a plain miss";
    EXPECT_GT(stream.storeHits(), 0u) << "intact chunks still serve";
    EXPECT_GT(stream.storeMisses(), 0u);
    EXPECT_EQ(store.residentBytes(), 6 * kChunk * sizeof(MicroOp))
        << "the memory tier holds decoded chunks only, never records";
    std::filesystem::remove_all(dir);
}

TEST(ChunkStoreEquivalence, EverySuiteKernelStreamsWithinItsBudget)
{
    // A store-backed stream's generator may run a kernel only up to the
    // stream's length rounded up to whole chunks. Without that bound a
    // kernel whose run() pass is one long sweep generates (and
    // buffers) the whole pass before serving its first chunk; the
    // ctest TIMEOUT on this binary catches that regression.
    const size_t total = 2 * kChunk + 123;
    for (const std::string &name : stSuiteNames()) {
        SCOPED_TRACE(name);
        auto oracle_wl = makeWorkload(name);
        Trace oracle = oracle_wl->generate(total);
        ChunkStore store;
        auto wl = makeWorkload(name);
        TraceStream stream(*wl, total, kChunk, std::function<double()>(),
                           &store);
        expectOpsEqual(drain(stream), oracle.ops, name);
        EXPECT_EQ(store.stats().puts, 3u)
            << "exactly the three budgeted chunks are published";
    }
}

// ------------------ Campaign equivalence -------------------------

/**
 * The acceptance matrix: a store-less baseline, then the store off,
 * cold, warm and disk-backed, and eviction-thrashing at jobs 1/8/16.
 */
void
expectStoreStateEquivalence(const SimConfig &cfg)
{
    const std::string dir = freshDir("chunk_store_equiv_" + cfg.name);
    ChunkStore::Config disk_cfg;
    disk_cfg.diskDir = dir;
    ChunkStore warm(disk_cfg); // shared across job counts: stays warm
    ChunkStore::Config tiny_cfg;
    tiny_cfg.memBudgetBytes = 1; // evicts after every insertion
    ChunkStore evicting(tiny_cfg);
    std::vector<std::unique_ptr<ChunkStore>> cold; // fresh per campaign
    expectStoreStatesMatch(
        cfg, optsWithStores(nullptr),
        {[] { return optsWithStores(nullptr); },
         [&] {
             return optsWithStores(
                 cold.emplace_back(std::make_unique<ChunkStore>()).get());
         },
         [&] { return optsWithStores(&warm); },
         [&] { return optsWithStores(&evicting); }},
        kInstr, kWarm);
    for (const auto &c : cold)
        EXPECT_GT(c->stats().puts, 0u);
    EXPECT_GT(warm.stats().hits, 0u) << "the warm store actually served";
    EXPECT_GT(evicting.stats().evictions, 0u)
        << "the tiny store actually thrashed";
    std::filesystem::remove_all(dir);
}

TEST(ChunkStoreEquivalence, DetailedBaselineCampaigns)
{
    expectStoreStateEquivalence(baselineSkx());
}

TEST(ChunkStoreEquivalence, DetailedCatchCampaigns)
{
    // The CATCH config exercises the TACT feeder, which reads the
    // stream's functional memory — the path the store keeps canonical
    // by replaying Store ops.
    expectStoreStateEquivalence(withCatch(baselineSkx()));
}

TEST(ChunkStoreEquivalence, SampledCampaigns)
{
    SimConfig cfg = baselineSkx();
    cfg.sampling.mode = SampleMode::Sampled;
    cfg.sampling.intervalInstrs = 5000;
    cfg.sampling.windowInstrs = 2000;
    cfg.sampling.warmupInstrs = 2000;
    expectStoreStateEquivalence(cfg);
}

// ------------------------ Concurrency ----------------------------

TEST(ChunkStoreConcurrent, SharedStoreConsumerStress)
{
    // Eight consumer threads drain store-backed streams of two kernel
    // identities against a shared evicting, disk-backed store, so
    // finds, regenerations, publications and evictions race. Every
    // drained sequence must be canonical; TSan (CI) watches the
    // synchronization.
    const std::string dir = freshDir("chunk_store_stress");
    ChunkStore::Config cfg;
    cfg.memBudgetBytes = 8 * kChunk * sizeof(MicroOp);
    cfg.diskDir = dir;
    ChunkStore store(cfg);

    const size_t total = 6 * kChunk + 123;
    auto mcf_wl = makeWorkload("mcf");
    auto omnetpp_wl = makeWorkload("omnetpp");
    Trace mcf_oracle = mcf_wl->generate(total);
    Trace omnetpp_oracle = omnetpp_wl->generate(total);

    std::vector<std::thread> consumers;
    for (int t = 0; t < 8; ++t) {
        consumers.emplace_back([&, t] {
            const std::string name = t % 2 ? "omnetpp" : "mcf";
            const Trace &oracle = t % 2 ? omnetpp_oracle : mcf_oracle;
            for (int rep = 0; rep < 2; ++rep) {
                auto wl = makeWorkload(name);
                TraceStream stream(*wl, total, kChunk,
                                   std::function<double()>(), &store);
                std::vector<MicroOp> got = drain(stream);
                expectOpsEqual(got, oracle.ops,
                               name + " thread " + std::to_string(t));
            }
        });
    }
    for (auto &c : consumers)
        c.join();
    EXPECT_GT(store.stats().evictions, 0u)
        << "the memory tier actually thrashed";
    std::filesystem::remove_all(dir);
}

TEST(ChunkStoreConcurrent, ParallelCampaignSharesOneDiskStore)
{
    // jobs=16 over one shared store: the complete production path
    // (find/put/disk/eviction) under real campaign concurrency must
    // stay bitwise-equivalent.
    const std::string dir = freshDir("chunk_store_campaign_stress");
    SimConfig cfg = baselineSkx();
    const std::vector<std::string> names = campaignNames();
    auto baseline = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                         optsWithStores(nullptr));

    ChunkStore::Config store_cfg;
    store_cfg.diskDir = dir;
    store_cfg.memBudgetBytes = 4 * TraceStream::kDefaultChunkOps *
                               sizeof(MicroOp);
    ChunkStore store(store_cfg);
    for (int rep = 0; rep < 2; ++rep) {
        auto got = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 16,
                                        optsWithStores(&store));
        for (size_t i = 0; i < names.size(); ++i)
            expectBitwiseEqual(got[i].result, baseline[i].result);
    }
    EXPECT_GT(store.stats().hits, 0u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace catchsim
