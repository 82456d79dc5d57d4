/**
 * @file
 * Tests for the incremental content-hashed result store
 * (sim/result_store.hh): successful runs round-trip bitwise through
 * put/find, the executor serves unchanged cells from the store and
 * counts hits/misses, a one-knob config change invalidates exactly the
 * cells it touches, a renamed config replays under its new label,
 * failed cells are never stored so a rerun executes only them, records
 * the codec cannot replay (missing keys, a non-success status)
 * self-heal as misses, and a second campaign pointed at a locked store
 * fails fast with a config error. Frame-level corruption (truncation,
 * bit flips, key mismatch) is pinned by the RecordDir cases of
 * tests/content_store_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_inject.hh"
#include "sim/configs.hh"
#include "sim/parallel_runner.hh"
#include "sim/result_store.hh"
#include "sim/worker_proto.hh"
#include "sim_result_compare.hh"
#include "store_test_util.hh"
#include "trace/suite.hh"

namespace catchsim
{
namespace
{

constexpr uint64_t kInstr = 20000;
constexpr uint64_t kWarm = 5000;

/** Fresh scratch directory per test; removed on destruction. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &name)
        : path(::testing::TempDir() + "catchsim_" + name)
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    std::string path;
};

std::unique_ptr<ResultStore>
mustOpen(const std::string &dir)
{
    auto s = ResultStore::open(dir);
    EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error().message);
    return s.ok() ? std::move(s).value() : nullptr;
}

RunKey
keyFor(const SimConfig &cfg, const std::string &workload)
{
    auto wl = findWorkload(workload);
    EXPECT_TRUE(wl.ok()) << workload;
    return RunKey{workload, wl.ok() ? wl.value()->seed() : 0,
                  configDigest(cfg), kInstr, kWarm};
}

IsolationOptions
optsWith(ResultStore *store, const FaultPlan *plan = nullptr)
{
    IsolationOptions opts;
    opts.resultStore = store;
    opts.plan = plan;
    opts.backoffMs = 0;
    return opts;
}

TEST(ResultStore, PutThenFindRoundTripsBitwise)
{
    ScratchDir dir("store_roundtrip");
    SimConfig cfg = baselineSkx();
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);

    auto ran = runWorkloadsIsolated(cfg, {"hmmer"}, kInstr, kWarm, 1);
    ASSERT_TRUE(ran[0].ok());

    RunKey key = keyFor(cfg, "hmmer");
    EXPECT_FALSE(store->find(key).has_value());
    EXPECT_EQ(store->stats().misses, 1u);

    ran[0].profile = RunProfile{}; // wall-clock data is never stored
    store->put(key, ran[0]);
    auto hit = store->find(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->fromStore);
    EXPECT_FALSE(hit->profile.has_value());
    EXPECT_EQ(hit->status, RunStatus::Ok);
    EXPECT_EQ(hit->attempts, 1u);
    expectBitwiseEqual(ran[0].result, hit->result);
    EXPECT_EQ(store->stats().hits, 1u);
}

TEST(ResultStore, ExecutorResweepHitsUnchangedCellsOnly)
{
    ScratchDir dir("store_resweep");
    SimConfig cfg = baselineSkx();
    const std::vector<std::string> names = {"mcf", "hmmer"};

    // Campaign 1: cold store, every cell executes and persists.
    auto s1 = mustOpen(dir.path);
    ASSERT_NE(s1, nullptr);
    auto first = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                                      optsWith(s1.get()));
    for (const auto &o : first) {
        ASSERT_TRUE(o.ok()) << o.workload;
        EXPECT_FALSE(o.fromStore);
        EXPECT_TRUE(o.storeMiss);
    }
    EXPECT_EQ(s1->stats().misses, names.size());
    CampaignSummary sum1 = summarizeOutcomes(first);
    EXPECT_EQ(sum1.storeMisses, names.size());
    EXPECT_EQ(sum1.storeHits, 0u);
    s1.reset(); // release the campaign lock

    // Campaign 2: identical config — every cell replays bitwise.
    auto s2 = mustOpen(dir.path);
    ASSERT_NE(s2, nullptr);
    auto second = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                                       optsWith(s2.get()));
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(second[i].ok());
        EXPECT_TRUE(second[i].fromStore) << names[i];
        EXPECT_EQ(second[i].config, cfg.name);
        expectBitwiseEqual(first[i].result, second[i].result);
    }
    EXPECT_EQ(s2->stats().hits, names.size());
    CampaignSummary sum2 = summarizeOutcomes(second);
    EXPECT_EQ(sum2.storeHits, names.size());
    EXPECT_EQ(sum2.storeMisses, 0u);
    s2.reset();

    // Campaign 3: one knob changed — every cell is invalidated and
    // re-executes (the digest covers the whole SimConfig).
    SimConfig tweaked = cfg;
    tweaked.oracle.latAddLlc = 1;
    auto s3 = mustOpen(dir.path);
    ASSERT_NE(s3, nullptr);
    auto third = runWorkloadsIsolated(tweaked, names, kInstr, kWarm, 2,
                                      optsWith(s3.get()));
    for (const auto &o : third) {
        ASSERT_TRUE(o.ok());
        EXPECT_FALSE(o.fromStore) << o.workload
                                  << " must re-execute after the sweep";
    }
    EXPECT_EQ(s3->stats().misses, names.size());
}

TEST(ResultStore, RenamedConfigKeepsItsCells)
{
    // The digest hashes content, not the label: a renamed but otherwise
    // identical config replays from the store.
    SimConfig cfg = baselineSkx();
    SimConfig renamed = cfg;
    renamed.name = "relabelled";
    EXPECT_EQ(configDigest(cfg), configDigest(renamed));

    SimConfig tweaked = cfg;
    tweaked.llc.latency += 1;
    EXPECT_NE(configDigest(cfg), configDigest(tweaked));

    // Through the executor the hit carries the new label everywhere, as
    // a fresh run under that name would; every other bit is the stored
    // run's.
    ScratchDir dir("store_renamed");
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);
    auto first = runWorkloadsIsolated(cfg, {"hmmer"}, kInstr, kWarm, 1,
                                      optsWith(store.get()));
    ASSERT_TRUE(first[0].ok());
    auto second = runWorkloadsIsolated(renamed, {"hmmer"}, kInstr, kWarm,
                                       1, optsWith(store.get()));
    ASSERT_TRUE(second[0].ok());
    EXPECT_TRUE(second[0].fromStore);
    EXPECT_EQ(second[0].config, "relabelled");
    EXPECT_EQ(second[0].result.config, "relabelled");
    SimResult want = first[0].result;
    want.config = "relabelled";
    expectBitwiseEqual(want, second[0].result);
}

TEST(ResultStore, FailedCellsAreNotStoredAndRerunAlone)
{
    // A campaign with one failed cell stores only its successes, so the
    // rerun without the fault executes exactly the failed cell.
    ScratchDir dir("store_failures");
    const std::vector<std::string> names = {"mcf", "hmmer"};
    SimConfig cfg = baselineSkx();
    auto corrupt_mcf = FaultPlan::parse("trace-corrupt:mcf");
    ASSERT_TRUE(corrupt_mcf.ok());
    const FaultPlan no_faults;

    auto clean = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                                      optsWith(nullptr, &no_faults));
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);
    auto first =
        runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                             optsWith(store.get(), &corrupt_mcf.value()));
    ASSERT_FALSE(first[0].ok());
    ASSERT_TRUE(first[1].ok());

    auto second = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                                       optsWith(store.get(), &no_faults));
    ASSERT_TRUE(second[0].ok()) << "mcf must recover on the rerun";
    EXPECT_TRUE(second[0].storeMiss);
    EXPECT_FALSE(second[0].fromStore);
    EXPECT_TRUE(second[1].fromStore);
    EXPECT_FALSE(second[1].storeMiss);
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(clean[i].ok()) << names[i];
        expectBitwiseEqual(clean[i].result, second[i].result);
    }
}

TEST(ResultStore, KeyCoversTheWholeRunIdentity)
{
    SimConfig cfg = baselineSkx();
    RunKey key = keyFor(cfg, "hmmer");
    const std::string base = key.bytes();

    RunKey k = key;
    k.workload = "mcf";
    EXPECT_NE(k.bytes(), base);
    k = key;
    k.workloadSeed ^= 1;
    EXPECT_NE(k.bytes(), base);
    k = key;
    k.configDigest ^= 1;
    EXPECT_NE(k.bytes(), base);
    k = key;
    k.instrs += 1;
    EXPECT_NE(k.bytes(), base);
    k = key;
    k.warmup += 1;
    EXPECT_NE(k.bytes(), base);
}

TEST(ResultStore, RecordsMissingKeysOrFailuresAreRejected)
{
    // The record codec refuses anything it could not replay as a
    // successful run: a record with missing keys, or one whose status
    // is a failure. Behind a valid frame the rejection is corrupt, so
    // find() deletes the record and misses; a fresh put heals the slot.
    ScratchDir dir("store_codec");
    SimConfig cfg = baselineSkx();
    auto ran = runWorkloadsIsolated(cfg, {"hmmer"}, kInstr, kWarm, 1);
    ASSERT_TRUE(ran[0].ok());
    RunKey key = keyFor(cfg, "hmmer");
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);
    const std::string path = store->recordPath(key);
    using Edit = std::function<void(std::string &)>;
    for (const Edit &edit :
         {Edit([](std::string &rec) { rec = "{\"status\":\"ok\"}"; }),
          Edit([](std::string &rec) {
              rec.replace(rec.find("\"ok\""), 4, "\"failed\"");
          })}) {
        store->put(key, ran[0]);
        editPayload(path, [&edit](std::vector<char> &p) {
            std::string rec(p.begin(), p.end());
            edit(rec);
            p.assign(rec.begin(), rec.end());
        });
        EXPECT_FALSE(store->find(key).has_value());
        EXPECT_FALSE(std::filesystem::exists(path))
            << "a rejected record self-heals by deletion";
    }
    EXPECT_EQ(store->stats().corrupt, 2u);
    store->put(key, ran[0]);
    EXPECT_TRUE(store->find(key).has_value());
}

TEST(ResultStore, SecondCampaignOnALockedStoreFailsFast)
{
    ScratchDir dir("store_lock");
    auto first = mustOpen(dir.path);
    ASSERT_NE(first, nullptr);

    auto second = ResultStore::open(dir.path);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().category, ErrorCategory::Config);
    EXPECT_NE(second.error().message.find("locked"), std::string::npos);

    // Releasing the first campaign's lock frees the store.
    first.reset();
    auto third = ResultStore::open(dir.path);
    EXPECT_TRUE(third.ok());
}

TEST(ResultStore, UnwritableDirectoryIsAConfigError)
{
    ScratchDir dir("store_unwritable");
    ASSERT_TRUE(std::filesystem::create_directories(dir.path));
    std::string blocker = dir.path + "/blocker";
    std::FILE *f = std::fopen(blocker.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);

    auto s = ResultStore::open(blocker + "/nested");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().category, ErrorCategory::Config);
}

} // namespace
} // namespace catchsim
