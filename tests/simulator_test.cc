/**
 * @file
 * Tests for the single-thread simulator driver, the MP simulator and
 * the N-core Machine both run on: determinism, warmup accounting,
 * config plumbing, weighted speedup.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/mp_simulator.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"
#include "trace/trace_stream.hh"

namespace catchsim
{
namespace
{

constexpr uint64_t kInstr = 40000;
constexpr uint64_t kWarm = 10000;

TEST(Simulator, RunsAndCounts)
{
    SimResult r = runWorkload(baselineSkx(), "hmmer", kInstr, kWarm);
    EXPECT_EQ(r.core.instrs, kInstr);
    EXPECT_GT(r.ipc, 0.05);
    EXPECT_LT(r.ipc, 4.0);
    EXPECT_GT(r.hier.loads, 1000u);
    EXPECT_EQ(r.workload, "hmmer");
    EXPECT_GT(r.energy.total(), 0.0);
}

TEST(Simulator, Deterministic)
{
    SimResult a = runWorkload(baselineSkx(), "mcf", kInstr, kWarm);
    SimResult b = runWorkload(baselineSkx(), "mcf", kInstr, kWarm);
    EXPECT_EQ(a.core.cycles, b.core.cycles);
    EXPECT_EQ(a.hier.loadHits[0], b.hier.loadHits[0]);
    EXPECT_EQ(a.dram.reads, b.dram.reads);
}

TEST(Simulator, WarmupExcludedFromStats)
{
    SimResult r = runWorkload(baselineSkx(), "hmmer", kInstr, kWarm);
    // Measured loads must correspond to the measured window only.
    EXPECT_LT(r.hier.loads, kInstr);
    EXPECT_GT(r.core.cycles, 0u);
}

TEST(Simulator, CatchConfigActivatesMachinery)
{
    SimConfig cfg = withCatch(baselineSkx());
    SimResult r = runWorkload(cfg, "hmmer", kInstr, kWarm);
    EXPECT_GT(r.ddg.walks, 0u);
    EXPECT_GT(r.criticalTable.recordings, 0u);
    EXPECT_GT(r.hier.tactPrefetches, 0u);
}

TEST(Simulator, BaselineHasNoTactActivity)
{
    SimResult r = runWorkload(baselineSkx(), "hmmer", kInstr, kWarm);
    EXPECT_EQ(r.hier.tactPrefetches, 0u);
    EXPECT_EQ(r.ddg.walks, 0u);
}

TEST(Simulator, NoL2ConfigHasNoL2Stats)
{
    SimResult r = runWorkload(noL2(baselineSkx(), 6656), "hmmer", kInstr,
                              kWarm);
    EXPECT_FALSE(r.hasL2);
    EXPECT_EQ(r.hier.loadHits[static_cast<int>(Level::L2)], 0u);
}

TEST(Simulator, CriticalityAloneDoesNotChangeTiming)
{
    // The detector observes retirement; it must never perturb the run.
    SimConfig plain = baselineSkx();
    SimConfig watch = baselineSkx();
    watch.criticality.enabled = true;
    SimResult a = runWorkload(plain, "mcf", kInstr, kWarm);
    SimResult b = runWorkload(watch, "mcf", kInstr, kWarm);
    EXPECT_EQ(a.core.cycles, b.core.cycles);
}

TEST(Simulator, HitFractionsSumToOne)
{
    SimResult r = runWorkload(baselineSkx(), "omnetpp", kInstr, kWarm);
    double total = 0;
    for (int l = 0; l < 4; ++l)
        total += r.hier.loadHitFraction(static_cast<Level>(l));
    // Forwarded loads never reach the hierarchy, so <= 1.
    EXPECT_NEAR(total, 1.0, 0.02);
}

TEST(Simulator, CounterIdentitiesHoldWithoutWarmup)
{
    // Without a warmup every counter covers the same window. (TactStats
    // and the DDG counters also count warmup instructions; DESIGN.md
    // says which counters restart at the measurement boundary.)
    const SimConfig cfg = withCatch(baselineSkx());
    for (const std::string &name : stQuickNames()) {
        SCOPED_TRACE(name);
        const SimResult r = runWorkload(cfg, name, 200000, 0);
        EXPECT_EQ(r.tact.crossIssued + r.tact.deepIssued +
                      r.tact.feederIssued + r.tact.codeLines,
                  r.hier.tactPrefetches);
        EXPECT_EQ(r.ddg.retired, r.core.instrs);
        uint64_t served = 0;
        for (uint64_t hits : r.hier.loadHits)
            served += hits;
        EXPECT_EQ(served, r.hier.loads);
    }
}

TEST(Simulator, GuardedRunRejectsDegenerateCoreConfigs)
{
    // Each of these once passed validation: zero ALU ports never
    // issued (the run hung), a zero store queue crashed, and 256 load
    // ports overflowed the issue calendar's 8-bit count.
    auto zero_alu = [](SimConfig &c) { c.aluPorts = 0; };
    auto zero_sq = [](SimConfig &c) { c.storeQueueSize = 0; };
    auto wide_load = [](SimConfig &c) { c.loadPorts = 256; };
    for (void (*mutate)(SimConfig &) : {+zero_alu, +zero_sq, +wide_load}) {
        SimConfig cfg = baselineSkx();
        mutate(cfg);
        Expected<SimResult> r =
            runWorkloadGuarded(cfg, "hmmer", 20000, 5000, RunBudget{},
                               FaultPlan{});
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().category, ErrorCategory::Config)
            << r.error().message;
    }
}

TEST(Experiment, CategoryGeomeans)
{
    ExperimentEnv env;
    env.names = {"hmmer", "milc"};
    env.instrs = 20000;
    env.warmup = 5000;
    auto base = runSuite(baselineSkx(), env);
    auto test = runSuite(noL2(baselineSkx(), 6656), env);
    auto rows = categoryGeomeans(base, test);
    ASSERT_GE(rows.size(), 3u); // FSPEC, ISPEC, GeoMean
    EXPECT_EQ(rows.back().first, "GeoMean");
    EXPECT_GT(rows.back().second, 0.3);
    EXPECT_LT(rows.back().second, 1.2);
}

TEST(MpSimulator, WeightedSpeedupNearCoreCount)
{
    // Four copies of a compute-bound workload barely contend: weighted
    // speedup must be close to 4 (the number of cores).
    SimConfig cfg = baselineSkx();
    MpMix mix{"rate4.hplinpack",
              {"hplinpack", "hplinpack", "hplinpack", "hplinpack"}};
    SimResult solo = runWorkload(cfg, "hplinpack", 20000, 5000);
    MpSimulator mp(cfg);
    MpResult r = mp.run(mix, 20000, 5000,
                        {solo.ipc, solo.ipc, solo.ipc, solo.ipc});
    EXPECT_GT(r.weightedSpeedup, 3.2);
    EXPECT_LT(r.weightedSpeedup, 4.2);
}

TEST(MpSimulator, MemoryBoundMixesContend)
{
    // Four memory-bound copies share DRAM: weighted speedup < solo x4.
    SimConfig cfg = baselineSkx();
    MpMix mix{"rate4.mcf", {"mcf", "mcf", "mcf", "mcf"}};
    SimResult solo = runWorkload(cfg, "mcf", 20000, 5000);
    MpSimulator mp(cfg);
    MpResult r = mp.run(mix, 20000, 5000,
                        {solo.ipc, solo.ipc, solo.ipc, solo.ipc});
    EXPECT_LT(r.weightedSpeedup, 4.0);
    EXPECT_GT(r.weightedSpeedup, 1.0);
}

TEST(MpSimulator, WarnsForCoresThatMeasuredNothing)
{
    // Stats reset only once every core has warmed up, so a core that
    // finished first reports IPC 0. mix0 at this size loses core 3;
    // four identical cores finish together and lose none.
    SimConfig cfg = baselineSkx();
    const std::vector<MpMix> mixes = mpMixes();
    auto it = std::find_if(mixes.begin(), mixes.end(),
                           [](const MpMix &m) { return m.name == "mix0"; });
    ASSERT_NE(it, mixes.end());
    const MpMix &mix0 = *it;
    ::testing::internal::CaptureStderr();
    MpResult r = MpSimulator(cfg).run(mix0, 20000, 5000, {1, 1, 1, 1});
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(r.ipc[3], 0.0);
    EXPECT_NE(err.find("MP mix 'mix0': core 3 (" + mix0.workloads[3] +
                       ") measured 0 instructions"),
              std::string::npos)
        << err;
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(r.ipc[c] == 0.0,
                  err.find("core " + std::to_string(c) + " (") !=
                      std::string::npos)
            << "core " << c << ": " << err;

    MpMix rate{"rate4.hplinpack",
               {"hplinpack", "hplinpack", "hplinpack", "hplinpack"}};
    ::testing::internal::CaptureStderr();
    MpSimulator(cfg).run(rate, 20000, 5000, {1, 1, 1, 1});
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

/** Streams for @p names, kept alive beside the Machine that reads them. */
struct MachineTraces
{
    std::vector<std::unique_ptr<Workload>> workloads;
    std::vector<std::unique_ptr<TraceStream>> streams;
    std::vector<Machine::CoreTrace> traces;

    MachineTraces(const std::vector<std::string> &names, uint64_t length)
    {
        for (const std::string &name : names) {
            workloads.push_back(makeWorkload(name));
            streams.push_back(
                std::make_unique<TraceStream>(*workloads.back(), length));
            traces.push_back({streams.back().get(), nullptr});
        }
    }
};

TEST(Machine, OneCoreIsTheSimulatorsDetailedRun)
{
    SimConfig cfg = withCatch(baselineSkx());
    SimResult r = runWorkload(cfg, "mcf", kInstr, kWarm);
    MachineTraces t({"mcf"}, kInstr + kWarm);
    Machine m(cfg, t.traces); // numCores defaults to 1
    ASSERT_FALSE(m.run(kWarm, RunBudget::unlimited()).has_value());
    const CoreStats s = m.core(0).stats();
    EXPECT_EQ(s.instrs, r.core.instrs);
    EXPECT_EQ(s.cycles, r.core.cycles);
    EXPECT_EQ(s.loads, r.core.loads);
    EXPECT_EQ(m.hierarchy().stats().loads, r.hier.loads);
    EXPECT_EQ(m.tact(0)->stats().crossIssued, r.tact.crossIssued);
}

TEST(Machine, ZeroWarmupMeasuresEveryCoreFromItsFirstInstruction)
{
    SimConfig cfg = baselineSkx();
    cfg.numCores = 3;
    MachineTraces t({"mcf", "hmmer", "hplinpack"}, 5000);
    Machine m(cfg, t.traces);
    bool measured = false;
    ASSERT_FALSE(m.run(0, RunBudget::unlimited(), [&] {
                      measured = true;
                  }).has_value());
    EXPECT_TRUE(measured);
    for (CoreId c = 0; c < 3; ++c)
        EXPECT_EQ(m.core(c).stats().instrs, 5000u) << "core " << c;
}

TEST(Machine, OracleStudiesGetADetectorOnEveryCore)
{
    // Fig 4's non-critical demotion and Fig 5's PC-limited oracle
    // prefetch consult the critical table without enabling criticality.
    SimConfig demote = baselineSkx();
    demote.oracle.demote = DemoteMode::L2ToLlcNonCrit;
    SimConfig oracle_pf = baselineSkx();
    oracle_pf.oracle.oraclePrefetch = true;
    oracle_pf.oracle.oraclePrefetchPcLimit = 32;
    SimConfig plain_cfg = baselineSkx();
    for (SimConfig *cfg : {&demote, &oracle_pf, &plain_cfg})
        cfg->numCores = 2;
    MachineTraces t({"mcf", "gobmk"}, 1000);
    for (const SimConfig &cfg : {demote, oracle_pf}) {
        Machine m(cfg, t.traces);
        for (CoreId c = 0; c < 2; ++c) {
            EXPECT_NE(m.detector(c), nullptr) << "core " << c;
            EXPECT_EQ(m.tact(c), nullptr) << "core " << c;
        }
    }
    Machine plain(plain_cfg, t.traces);
    EXPECT_EQ(plain.detector(0), nullptr);
    EXPECT_EQ(plain.detector(1), nullptr);
}

TEST(Machine, WatchdogStopsTheRunAtTheCycleCeiling)
{
    SimConfig cfg = baselineSkx();
    cfg.numCores = 2;
    MachineTraces t({"mcf", "mcf"}, 50000);
    Machine m(cfg, t.traces);
    RunBudget budget;
    budget.maxCycles = 2000;
    auto err = m.run(1000, budget);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->category, ErrorCategory::BudgetExceeded);
    EXPECT_FALSE(m.core(0).done());
}

} // namespace
} // namespace catchsim
