/**
 * @file
 * Sampled-simulation acceptance tests, in four layers:
 *
 *  1. Accuracy: for every quick kernel under both hierarchy shapes the
 *     sampled-mode IPC must land within 3% of the full detailed run.
 *     The sampling parameters here are the dense short-run operating
 *     point (interval 5000, window 2000, warmup 2000 — see
 *     docs/PERFORMANCE.md): at 1 M instrs that yields 200 windows,
 *     enough for the ratio estimator to average out phase aliasing.
 *     Everything is deterministic, so these are exact regression gates,
 *     not statistical ones.
 *  2. Determinism: the sample schedule derives from the instruction
 *     counter alone, so sampled results must be bitwise-identical
 *     across repeated runs and across any --jobs count.
 *  3. Golden pinning: SampleMode::Detailed output must stay
 *     hash-identical to goldens captured before the sampling engine
 *     existed — adding the mode cannot perturb the detailed path.
 *  4. FastForward contract: the warming engine updates state only —
 *     it leaves every stats counter untouched while placing lines.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/branch_predictor.hh"
#include "sim/configs.hh"
#include "sim/fast_forward.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"
#include "sim_result_compare.hh"
#include "trace/suite.hh"
#include "trace/workload.hh"

namespace catchsim
{
namespace
{

SimConfig
catchNoL2()
{
    return withCatch(noL2(baselineSkx(), 9728));
}

SimConfig
denseSampling(SimConfig cfg)
{
    cfg.sampling.mode = SampleMode::Sampled;
    cfg.sampling.intervalInstrs = 5000;
    cfg.sampling.windowInstrs = 2000;
    cfg.sampling.warmupInstrs = 2000;
    return cfg;
}

// ---------------------------------------------------------------------
// 1. Accuracy against the detailed oracle.

class SampledAccuracy : public ::testing::TestWithParam<const char *>
{
  protected:
    static constexpr uint64_t kInstr = 1000000;
    static constexpr uint64_t kWarm = 20000;

    void
    expectWithinThreePercent(const SimConfig &cfg)
    {
        std::vector<std::string> names = stQuickNames();
        for (const std::string &name : names) {
            SimResult det = runWorkload(cfg, name, kInstr, kWarm);
            SimResult sam =
                runWorkload(denseSampling(cfg), name, kInstr, kWarm);
            ASSERT_GT(det.ipc, 0.0) << name;
            EXPECT_TRUE(sam.sampled) << name;
            EXPECT_GT(sam.sample.windows, 0u) << name;
            double rel = (sam.ipc - det.ipc) / det.ipc;
            EXPECT_LE(rel < 0 ? -rel : rel, 0.03)
                << name << ": detailed IPC " << det.ipc
                << " vs sampled " << sam.ipc;
        }
    }
};

TEST_F(SampledAccuracy, QuickKernelsWithinThreePercentBaseline)
{
    expectWithinThreePercent(baselineSkx());
}

TEST_F(SampledAccuracy, QuickKernelsWithinThreePercentCatchNoL2)
{
    expectWithinThreePercent(catchNoL2());
}

// ---------------------------------------------------------------------
// 2. Bitwise determinism of the sampled schedule.

TEST(SampledDeterminism, RepeatedRunsAreBitwiseIdentical)
{
    SimConfig cfg = denseSampling(catchNoL2());
    SimResult a = runWorkload(cfg, "mcf", 120000, 10000);
    SimResult b = runWorkload(cfg, "mcf", 120000, 10000);
    EXPECT_TRUE(a.sampled);
    expectBitwiseEqual(a, b);
}

TEST(SampledDeterminism, IdenticalAcrossJobCounts)
{
    // The schedule is a pure function of the instruction counter, so
    // thread scheduling must not be able to perturb it: jobs=8 and
    // jobs=16 (both far above the core count) must reproduce the
    // serial results bit for bit, in order.
    SimConfig cfg = denseSampling(baselineSkx());
    std::vector<std::string> names = {"mcf", "hpc.stream", "gobmk",
                                      "tpcc"};
    std::vector<RunOutcome> serial =
        runWorkloadsIsolated(cfg, names, 120000, 10000, 1);
    ASSERT_EQ(serial.size(), names.size());
    for (const RunOutcome &o : serial)
        ASSERT_TRUE(o.ok()) << o.workload;
    for (unsigned jobs : {8u, 16u}) {
        std::vector<RunOutcome> parallel =
            runWorkloadsIsolated(cfg, names, 120000, 10000, jobs);
        ASSERT_EQ(parallel.size(), names.size());
        for (size_t i = 0; i < names.size(); ++i) {
            ASSERT_TRUE(parallel[i].ok()) << names[i];
            EXPECT_TRUE(parallel[i].result.sampled) << names[i];
            expectBitwiseEqual(serial[i].result, parallel[i].result);
        }
    }
}

// ---------------------------------------------------------------------
// 3. Detailed-mode goldens: hash-pinned to pre-sampling outputs.

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

struct Golden
{
    const char *workload;
    uint64_t baseline;
    uint64_t catchNoL2;
};

// Captured from the detailed engine before SampleMode::Sampled landed
// (35000 instrs, 10000 warmup, FNV-1a over SimResult::toJson()). A
// mismatch means the detailed path's behavior or its JSON shape moved.
constexpr Golden kGoldens[] = {
    {"mcf", 0xf9391f77ea8af31bULL, 0x00b3698ad7225a12ULL},
    {"hpc.stream", 0x5cdef3a49a20c4b3ULL, 0x2f932fbb89cb4684ULL},
    {"gobmk", 0x4e833b3fe4105e00ULL, 0xbf2dd78946d275a2ULL},
};

TEST(DetailedGolden, OutputHashUnchangedBySamplingEngine)
{
    for (const Golden &g : kGoldens) {
        SimResult base =
            runWorkload(baselineSkx(), g.workload, 35000, 10000);
        EXPECT_FALSE(base.sampled) << g.workload;
        EXPECT_EQ(fnv1a(base.toJson()), g.baseline) << g.workload;

        SimResult cat = runWorkload(catchNoL2(), g.workload, 35000,
                                    10000);
        EXPECT_EQ(fnv1a(cat.toJson()), g.catchNoL2) << g.workload;
    }
}

/**
 * One golden per detector/TACT wiring branch the goldens above leave
 * unpinned: the heuristic detector, the detector without TACT, and the
 * two oracle studies that build a detector without enabling
 * criticality (Fig 4 demotion; Fig 5's PC-limited prefetch, which also
 * resizes the critical table). Same hash and sizes as kGoldens;
 * captured before Simulator and MpSimulator shared one N-core engine.
 */
TEST(DetailedGolden, DetectorWiringBranchesPinned)
{
    SimConfig heuristic = withCatch(baselineSkx());
    heuristic.criticality.kind = DetectorKind::Heuristic;
    SimConfig crit_only = baselineSkx();
    crit_only.criticality.enabled = true;
    SimConfig demote = baselineSkx();
    demote.oracle.demote = DemoteMode::L1ToL2NonCrit;
    SimConfig oracle_pf = baselineSkx();
    oracle_pf.oracle.oraclePrefetch = true;
    oracle_pf.oracle.oraclePrefetchPcLimit = 32;
    // 32 is also the default table size, and mcf has too few critical
    // PCs to fill a table either way; gcc over 2048 PCs shows the
    // resize itself.
    SimConfig oracle_pf2048 = oracle_pf;
    oracle_pf2048.oracle.oraclePrefetchPcLimit = 2048;

    struct Case
    {
        const char *what;
        SimConfig cfg;
        const char *workload;
        uint64_t golden;
    };
    const Case cases[] = {
        {"heuristic", heuristic, "mcf", 0x2b8778189302a470ULL},
        {"criticality-only", crit_only, "mcf", 0xd33906322a6851c4ULL},
        {"demote-l1-noncrit", demote, "mcf", 0x8b40034b384bc9abULL},
        {"oracle-prefetch-32", oracle_pf, "mcf", 0x0995340cbf40c99dULL},
        {"oracle-prefetch-2048", oracle_pf2048, "gcc",
         0x9b46637b489852f0ULL},
        {"client", baselineClient(), "mcf", 0xffebe09bdd8604f9ULL},
    };
    for (const Case &c : cases) {
        SimResult r = runWorkload(c.cfg, c.workload, 35000, 10000);
        EXPECT_EQ(fnv1a(r.toJson()), c.golden) << c.what;
    }
}

TEST(DetailedGolden, DetailedJsonCarriesNoSamplingBlock)
{
    SimResult det = runWorkload(baselineSkx(), "mcf", 35000, 10000);
    EXPECT_EQ(det.toJson().find("\"sampling\""), std::string::npos);
}

TEST(SampledJson, RoundTripPreservesSampleBlock)
{
    SimConfig cfg = denseSampling(baselineSkx());
    SimResult sam = runWorkload(cfg, "mcf", 120000, 10000);
    ASSERT_TRUE(sam.sampled);
    std::string json = sam.toJson();
    EXPECT_NE(json.find("\"sampling\""), std::string::npos);
    Expected<SimResult> back = SimResult::fromJson(json);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_TRUE(back.value().sampled);
    EXPECT_EQ(back.value().sample.windows, sam.sample.windows);
    EXPECT_EQ(back.value().sample.warmedInstrs, sam.sample.warmedInstrs);
    EXPECT_EQ(back.value().toJson(), json);
}

// ---------------------------------------------------------------------
// 4. FastForward: state-only stepping.

TEST(FastForward, WarmClampsToTraceEnd)
{
    auto wl = makeWorkload("mcf");
    Trace trace = wl->generate(5000);
    SimConfig cfg = baselineSkx();
    CacheHierarchy hier(cfg);
    BranchPredictor bp;
    FastForward ff(0, hier, bp, nullptr);
    ff.bind(trace);
    EXPECT_EQ(ff.warm(0, 3000, 0), 3000u);
    EXPECT_EQ(ff.warm(3000, 100000, 0), 5000u);
}

TEST(FastForward, WarmingPlacesLinesButTouchesNoStats)
{
    auto wl = makeWorkload("mcf");
    Trace trace = wl->generate(20000);
    SimConfig cfg = baselineSkx();
    CacheHierarchy hier(cfg);
    BranchPredictor bp;
    FastForward ff(0, hier, bp, nullptr);
    ff.bind(trace);
    ff.warm(0, 20000, 0);

    // The last data access's line must be L1D-resident: it was MRU in
    // its set when the trace ended, and nothing after it could have
    // evicted it.
    for (size_t i = trace.ops.size(); i-- > 0;) {
        const MicroOp &op = trace.ops[i];
        if (op.cls == OpClass::Load || op.cls == OpClass::Store) {
            EXPECT_TRUE(hier.residentIn(0, op.memAddr, Level::L1));
            break;
        }
    }

    // State only: every demand/miss/fill counter stays zero.
    EXPECT_EQ(hier.stats().ringTransfers, 0u);
    EXPECT_EQ(hier.stats().memTransfers, 0u);
    EXPECT_EQ(hier.l1dStats(0).demandAccesses, 0u);
    EXPECT_EQ(hier.l1dStats(0).fills, 0u);
    EXPECT_EQ(hier.l1iStats(0).demandAccesses, 0u);
    EXPECT_EQ(hier.llcStats().fills, 0u);
}

} // namespace
} // namespace catchsim
