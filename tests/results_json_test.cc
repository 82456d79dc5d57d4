/**
 * @file
 * Tests for the results JSON layer (sim/results_json.cc): the full
 * SimResult toJson/fromJson bitwise round trip result-store replays
 * rest on, the outcome-aware suite export (per-run status + campaign
 * summary), and the export error paths — an unwritable destination must
 * come back as a SimError, and the atomic tmp-then-rename write must
 * never leave a torn document at the final path.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fault_inject.hh"
#include "common/json.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"
#include "sim_result_compare.hh"
#include "trace/chunk_store.hh"

namespace catchsim
{
namespace
{

constexpr uint64_t kInstr = 20000;
constexpr uint64_t kWarm = 5000;

const FaultPlan kNoFaults;

IsolationOptions
optsWith(const FaultPlan &plan)
{
    IsolationOptions opts;
    opts.plan = &plan;
    opts.backoffMs = 0;
    return opts;
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return {};
    std::string text(1 << 20, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), f));
    std::fclose(f);
    return text;
}

TEST(ResultsJson, SimResultRoundTripsBitwise)
{
    SimConfig cfg = withCatch(baselineSkx());
    auto out = runWorkloadsIsolated(cfg, {"mcf"}, kInstr, kWarm, 1,
                                    optsWith(kNoFaults));
    ASSERT_TRUE(out[0].ok());
    const SimResult &orig = out[0].result;

    std::string json = orig.toJson();
    auto back = SimResult::fromJson(json);
    ASSERT_TRUE(back.ok()) << (back.ok() ? "" : back.error().message);
    expectBitwiseEqual(orig, back.value());
    // And the re-serialisation is byte-identical, so a stored record
    // survives any number of replay cycles unchanged.
    EXPECT_EQ(back.value().toJson(), json);
}

/** Writes consecutive values from @p next into every 8-byte field of
 *  a stats aggregate. A double field holds the integer's bit pattern
 *  (a subnormal), which %.17g must round-trip exactly as well. */
template <typename Stats>
void
fillDistinct(Stats &s, uint64_t &next)
{
    static_assert(std::is_trivially_copyable_v<Stats> &&
                  sizeof(Stats) % sizeof(uint64_t) == 0);
    uint64_t words[sizeof(Stats) / sizeof(uint64_t)];
    for (uint64_t &w : words)
        w = next++;
    std::memcpy(&s, words, sizeof(Stats));
}

TEST(ResultsJson, EveryCounterRoundTrips)
{
    // Every counter distinct, both optional objects present: a counter
    // the field list misses, or two sharing one key, reads back wrong.
    SimResult r;
    r.workload = "every-counter";
    r.config = "cfg";
    r.category = Category::Server;
    r.ipc = 1.0 / 3;
    r.hasL2 = true;
    r.sampled = true;
    r.activeCriticalPcs = 4242;
    r.timelinessAtLeast80 = 0.8125;
    r.timelinessAtLeast10 = 0.1;
    r.tactFromLlcFraction = 2.0 / 7;
    uint64_t next = 1;
    fillDistinct(r.core, next);
    fillDistinct(r.hier, next);
    fillDistinct(r.l1d, next);
    fillDistinct(r.l1i, next);
    fillDistinct(r.l2, next);
    fillDistinct(r.llc, next);
    fillDistinct(r.dram, next);
    fillDistinct(r.frontend, next);
    fillDistinct(r.ddg, next);
    fillDistinct(r.criticalTable, next);
    fillDistinct(r.tact, next);
    fillDistinct(r.energy, next);
    fillDistinct(r.sample, next);

    const std::string json = r.toJson();
    auto back = SimResult::fromJson(json);
    ASSERT_TRUE(back.ok()) << back.error().message;
    expectBitwiseEqual(r, back.value());
    EXPECT_EQ(back.value().toJson(), json);
}

TEST(ResultsJson, FromJsonRejectsDamagedDocuments)
{
    for (const char *bad :
         {"", "{", "{}", "[]", "42", "{\"workload\":\"mcf\"}"}) {
        auto r = SimResult::fromJson(std::string(bad));
        EXPECT_FALSE(r.ok()) << "must reject: " << bad;
    }
}

TEST(ResultsJson, OutcomeExportCarriesStatusAndSummary)
{
    SimConfig cfg = baselineSkx();
    ExperimentEnv env;
    env.names = {"mcf", "hmmer"};
    env.instrs = kInstr;
    env.warmup = kWarm;
    FaultPlan plan = [] {
        auto p = FaultPlan::parse("trace-corrupt:mcf");
        EXPECT_TRUE(p.ok());
        return std::move(p).value();
    }();
    auto outcomes = runWorkloadsIsolated(cfg, env.names, kInstr, kWarm,
                                         2, optsWith(plan));
    ASSERT_FALSE(outcomes[0].ok());
    ASSERT_TRUE(outcomes[1].ok());

    std::string path = ::testing::TempDir() + "outcome_export.json";
    ASSERT_TRUE(writeSuiteJson(path, cfg, env, outcomes).ok());
    std::string text = readFile(path);

    // The document must parse with our own reader (a stronger
    // well-formedness check than brace counting)...
    auto doc = parseJson(text);
    ASSERT_TRUE(doc.ok()) << (doc.ok() ? "" : doc.error().message);
    // ...and carry the campaign summary plus per-run status records.
    const JsonValue *summary = doc.value().member("summary");
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->member("total")->asU64(), 2u);
    EXPECT_EQ(summary->member("ok")->asU64(), 1u);
    EXPECT_EQ(summary->member("failed")->asU64(), 1u);
    EXPECT_EQ(summary->member("timed_out")->asU64(), 0u);

    const JsonValue *results = doc.value().member("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->size(), 2u);
    const JsonValue *failed = results->at(0);
    EXPECT_EQ(failed->member("workload")->asString(), "mcf");
    EXPECT_EQ(failed->member("status")->asString(), "failed");
    const JsonValue *err = failed->member("error");
    ASSERT_NE(err, nullptr) << "failures embed the structured error";
    EXPECT_EQ(err->member("category")->asString(), "trace-corrupt");
    EXPECT_EQ(failed->member("result"), nullptr)
        << "no fabricated result for a failed run";
    const JsonValue *okrun = results->at(1);
    EXPECT_EQ(okrun->member("status")->asString(), "ok");
    ASSERT_NE(okrun->member("result"), nullptr);

    std::filesystem::remove(path);
}

TEST(ResultsJson, ProfiledOutcomeExportsHostPerf)
{
    SimConfig cfg = baselineSkx();
    ExperimentEnv env;
    env.names = {"mcf"};
    env.instrs = kInstr;
    env.warmup = kWarm;
    IsolationOptions opts = optsWith(kNoFaults);
    opts.profile = true;
    auto outcomes = runWorkloadsIsolated(cfg, env.names, kInstr, kWarm,
                                         1, opts);
    ASSERT_TRUE(outcomes[0].ok());
    ASSERT_TRUE(outcomes[0].profile.has_value());
    // Every phase actually ran, so its timing is positive, and the
    // process footprint is nonzero.
    EXPECT_GT(outcomes[0].profile->warmupSec, 0.0);
    EXPECT_GT(outcomes[0].profile->measuredSec, 0.0);
    EXPECT_GT(outcomes[0].profile->traceGenSec, 0.0);
    EXPECT_GT(outcomes[0].profile->peakRssBytes, 0u);

    std::string path = ::testing::TempDir() + "profiled_export.json";
    ASSERT_TRUE(writeSuiteJson(path, cfg, env, outcomes).ok());
    auto doc = parseJson(readFile(path));
    ASSERT_TRUE(doc.ok()) << (doc.ok() ? "" : doc.error().message);
    const JsonValue *run = doc.value().member("results")->at(0);
    const JsonValue *perf = run->member("hostPerf");
    ASSERT_NE(perf, nullptr);
    EXPECT_NE(perf->member("trace_gen_sec"), nullptr);
    EXPECT_NE(perf->member("warmup_sec"), nullptr);
    EXPECT_NE(perf->member("measured_sec"), nullptr);
    EXPECT_GT(perf->member("peak_rss_bytes")->asU64(), 0u);
    // The simulated result itself is unchanged by profiling.
    auto plain = runWorkloadsIsolated(cfg, env.names, kInstr, kWarm, 1,
                                      optsWith(kNoFaults));
    ASSERT_TRUE(plain[0].ok());
    expectBitwiseEqual(outcomes[0].result, plain[0].result);
    EXPECT_FALSE(plain[0].profile.has_value());

    std::filesystem::remove(path);
}

TEST(ResultsJson, HostPerfReportsPerRunStoreCounters)
{
    // The store counters are per-run (this run's refill hits/misses),
    // never campaign-cumulative: a cold campaign then a warm campaign
    // against the same store must report miss-only then hit-only.
    SimConfig cfg = baselineSkx();
    ExperimentEnv env;
    env.names = {"mcf"};
    env.instrs = kInstr;
    env.warmup = kWarm;
    ChunkStore store;
    IsolationOptions opts = optsWith(kNoFaults);
    opts.profile = true;
    opts.store = &store;

    auto cold = runWorkloadsIsolated(cfg, env.names, kInstr, kWarm, 1,
                                     opts);
    ASSERT_TRUE(cold[0].ok());
    ASSERT_TRUE(cold[0].profile.has_value());
    EXPECT_GT(cold[0].profile->storeMissChunks, 0u);
    EXPECT_EQ(cold[0].profile->storeHitChunks, 0u);

    auto warm = runWorkloadsIsolated(cfg, env.names, kInstr, kWarm, 1,
                                     opts);
    ASSERT_TRUE(warm[0].ok());
    ASSERT_TRUE(warm[0].profile.has_value());
    EXPECT_GT(warm[0].profile->storeHitChunks, 0u);
    EXPECT_EQ(warm[0].profile->storeMissChunks, 0u)
        << "a cumulative counter would still show the cold misses";
    expectBitwiseEqual(warm[0].result, cold[0].result);

    std::string path = ::testing::TempDir() + "store_counters.json";
    ASSERT_TRUE(writeSuiteJson(path, cfg, env, warm).ok());
    auto doc = parseJson(readFile(path));
    ASSERT_TRUE(doc.ok()) << (doc.ok() ? "" : doc.error().message);
    const JsonValue *perf =
        doc.value().member("results")->at(0)->member("hostPerf");
    ASSERT_NE(perf, nullptr);
    ASSERT_NE(perf->member("store_hit_chunks"), nullptr);
    ASSERT_NE(perf->member("store_miss_chunks"), nullptr);
    EXPECT_EQ(perf->member("store_hit_chunks")->asU64(),
              warm[0].profile->storeHitChunks);
    EXPECT_EQ(perf->member("store_miss_chunks")->asU64(), 0u);
    std::filesystem::remove(path);
}

TEST(ResultsJson, HostPerfReportsPerRunWarmStateCounters)
{
    // Same per-run contract for the warmed-state snapshot counters: a
    // cold sampled run misses and publishes, a repeat run restores,
    // and the export carries exactly this run's attribution.
    SimConfig cfg = withCatch(baselineSkx());
    cfg.sampling.mode = SampleMode::Sampled;
    ExperimentEnv env;
    env.names = {"mcf"};
    env.instrs = kInstr;
    env.warmup = kWarm;
    ChunkStore chunks;
    WarmStateStore warm_store;
    IsolationOptions opts = optsWith(kNoFaults);
    opts.profile = true;
    opts.store = &chunks;
    opts.warmStore = &warm_store;

    auto cold = runWorkloadsIsolated(cfg, env.names, kInstr, kWarm, 1,
                                     opts);
    ASSERT_TRUE(cold[0].ok());
    ASSERT_TRUE(cold[0].profile.has_value());
    EXPECT_EQ(cold[0].profile->warmStateMisses, 1u);
    EXPECT_EQ(cold[0].profile->warmStateHits, 0u);
    EXPECT_GT(cold[0].profile->warmStateBytes, 0u);

    auto warm = runWorkloadsIsolated(cfg, env.names, kInstr, kWarm, 1,
                                     opts);
    ASSERT_TRUE(warm[0].ok());
    ASSERT_TRUE(warm[0].profile.has_value());
    EXPECT_EQ(warm[0].profile->warmStateHits, 1u);
    EXPECT_EQ(warm[0].profile->warmStateMisses, 0u)
        << "a cumulative counter would still show the cold miss";
    expectBitwiseEqual(warm[0].result, cold[0].result);

    std::string path = ::testing::TempDir() + "warm_state_counters.json";
    ASSERT_TRUE(writeSuiteJson(path, cfg, env, warm).ok());
    auto doc = parseJson(readFile(path));
    ASSERT_TRUE(doc.ok()) << (doc.ok() ? "" : doc.error().message);
    const JsonValue *perf =
        doc.value().member("results")->at(0)->member("hostPerf");
    ASSERT_NE(perf, nullptr);
    ASSERT_NE(perf->member("warm_state_hits"), nullptr);
    ASSERT_NE(perf->member("warm_state_misses"), nullptr);
    ASSERT_NE(perf->member("warm_state_bytes"), nullptr);
    EXPECT_EQ(perf->member("warm_state_hits")->asU64(), 1u);
    EXPECT_EQ(perf->member("warm_state_misses")->asU64(), 0u);
    EXPECT_EQ(perf->member("warm_state_bytes")->asU64(),
              warm[0].profile->warmStateBytes);
    std::filesystem::remove(path);
}

TEST(ResultsJson, UnwritableDestinationIsAnError)
{
    ExperimentEnv env;
    env.names = {"mcf"};
    env.instrs = kInstr;
    env.warmup = kWarm;
    std::vector<RunOutcome> outcomes(1);
    auto r = writeSuiteJson("/nonexistent-root/nested/out.json",
                            baselineSkx(), env, outcomes);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().category, ErrorCategory::Config);
}

TEST(ResultsJson, FailedExportLeavesNoTornFinalDocument)
{
    // The atomic write contract: the final path either holds the old
    // complete document or the new complete document, never a torn one.
    std::string dir = ::testing::TempDir() + "catchsim_atomic_export";
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    std::string path = dir + "/suite.json";

    ExperimentEnv env;
    env.names = {"mcf"};
    env.instrs = kInstr;
    env.warmup = kWarm;
    std::vector<RunOutcome> outcomes(1);
    ASSERT_TRUE(writeSuiteJson(path, baselineSkx(), env, outcomes).ok());
    std::string original = readFile(path);
    ASSERT_FALSE(original.empty());

    // Force the next write to fail after the first succeeded: the tmp
    // file cannot be created in a directory that no longer permits it.
    std::filesystem::permissions(dir,
                                 std::filesystem::perms::owner_read |
                                     std::filesystem::perms::owner_exec);
    auto r = writeSuiteJson(path, baselineSkx(), env, outcomes);
    std::filesystem::permissions(dir, std::filesystem::perms::owner_all);
    if (r.ok())
        GTEST_SKIP() << "running as a user the permission bits cannot "
                        "stop (root); atomicity not observable here";
    EXPECT_EQ(readFile(path), original)
        << "a failed export must not disturb the existing document";
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace catchsim
