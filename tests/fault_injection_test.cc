/**
 * @file
 * Tests for the deterministic fault-injection harness
 * (common/fault_inject.hh), the watchdog budget (sim/run_guard.hh) and
 * the per-run isolation layer that consumes both.
 *
 * The acceptance scenario for the fault-contained executor lives here:
 * inject faults into 3 of N workloads, run the campaign at jobs
 * 1/8/16, and require exactly 3 structured RunFailures while every
 * unaffected slot stays bitwise-identical to a fault-free campaign.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/fault_inject.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/run_guard.hh"
#include "sim_result_compare.hh"

namespace catchsim
{
namespace
{

constexpr uint64_t kInstr = 20000;
constexpr uint64_t kWarm = 5000;

/** A plan with no clauses: injection off, global env plan bypassed. */
const FaultPlan kNoFaults;

FaultPlan
mustParse(const std::string &spec)
{
    auto plan = FaultPlan::parse(spec);
    EXPECT_TRUE(plan.ok()) << spec;
    return plan.ok() ? std::move(plan).value() : FaultPlan{};
}

// ------------------------- Spec parsing --------------------------

TEST(FaultSpec, KindNamesRoundTrip)
{
    for (FaultKind k :
         {FaultKind::TraceCorrupt, FaultKind::IoTransient,
          FaultKind::WorkerThrow, FaultKind::Hang, FaultKind::CrashAbort,
          FaultKind::CrashSegv, FaultKind::Oom, FaultKind::ExecFail,
          FaultKind::HeartbeatStall}) {
        FaultPlan plan = mustParse(std::string(faultKindName(k)) + ":*");
        ASSERT_EQ(plan.clauses().size(), 1u);
        EXPECT_EQ(plan.clauses()[0].kind, k);
    }
}

TEST(FaultSpec, ProcessKindsSupportEveryTargetForm)
{
    FaultPlan plan = mustParse(
        "crash-segv:%25@7;crash-abort:mcf:x1;oom:*;exec-fail:tpcc;"
        "heartbeat-stall:milc");
    ASSERT_EQ(plan.clauses().size(), 5u);
    EXPECT_TRUE(plan.clauses()[0].percent);
    EXPECT_EQ(plan.clauses()[0].pct, 25u);
    EXPECT_EQ(plan.clauses()[0].seed, 7u);
    EXPECT_EQ(plan.clauses()[1].failCount, 1u);
    EXPECT_TRUE(plan.clauses()[2].every);
    EXPECT_EQ(plan.clauses()[2].failCount, 0u)
        << "process kinds default to persistent";

    // ':x1' counts process attempts: spawn 1 crashes, restart 2 runs.
    EXPECT_TRUE(plan.shouldInject(FaultKind::CrashAbort, "mcf", 1));
    EXPECT_FALSE(plan.shouldInject(FaultKind::CrashAbort, "mcf", 2));
    EXPECT_TRUE(plan.shouldInject(FaultKind::Oom, "anything", 9));
    EXPECT_FALSE(plan.shouldInject(FaultKind::HeartbeatStall, "tpcc", 1))
        << "kinds are independent";
    EXPECT_TRUE(plan.shouldInject(FaultKind::ExecFail, "tpcc", 1));
}

TEST(FaultSpec, ClauseFormsParse)
{
    FaultPlan plan = mustParse(
        "io-transient:mcf;io-transient:tpcc:x9;trace-corrupt:*;"
        "exception:%10@42");
    ASSERT_EQ(plan.clauses().size(), 4u);

    EXPECT_EQ(plan.clauses()[0].target, "mcf");
    EXPECT_EQ(plan.clauses()[0].failCount, 1u)
        << "io-transient defaults to one failing attempt";

    EXPECT_EQ(plan.clauses()[1].failCount, 9u);

    EXPECT_TRUE(plan.clauses()[2].every);
    EXPECT_EQ(plan.clauses()[2].failCount, 0u)
        << "non-transient kinds default to persistent";

    EXPECT_TRUE(plan.clauses()[3].percent);
    EXPECT_EQ(plan.clauses()[3].pct, 10u);
    EXPECT_EQ(plan.clauses()[3].seed, 42u);
}

TEST(FaultSpec, MalformedSpecsAreConfigErrors)
{
    for (const char *bad :
         {"frobnicate:mcf", "state-corrupt:mcf", "io-transient",
          "io-transient:", "io-transient:mcf:x0", "io-transient:mcf:xq",
          "exception:%@5", "exception:%150@5", "exception:%10"}) {
        auto plan = FaultPlan::parse(bad);
        ASSERT_FALSE(plan.ok()) << "must reject: " << bad;
        EXPECT_EQ(plan.error().category, ErrorCategory::Config) << bad;
    }
}

TEST(FaultSpec, EmptyAndSeparatorOnlySpecsDisableInjection)
{
    EXPECT_FALSE(mustParse("").enabled());
    EXPECT_FALSE(mustParse(";;").enabled());
}

// ----------------------- Injection queries -----------------------

TEST(FaultSpec, AttemptCountGatesTransientInjection)
{
    FaultPlan plan = mustParse("io-transient:mcf");
    EXPECT_TRUE(plan.shouldInject(FaultKind::IoTransient, "mcf", 1));
    EXPECT_FALSE(plan.shouldInject(FaultKind::IoTransient, "mcf", 2))
        << "the retry must succeed";
    EXPECT_FALSE(plan.shouldInject(FaultKind::IoTransient, "tpcc", 1));
    EXPECT_FALSE(plan.shouldInject(FaultKind::TraceCorrupt, "mcf", 1))
        << "kinds are independent";
}

TEST(FaultSpec, PersistentFaultsHitEveryAttempt)
{
    FaultPlan plan = mustParse("trace-corrupt:*");
    for (unsigned attempt : {1u, 2u, 17u})
        EXPECT_TRUE(plan.shouldInject(FaultKind::TraceCorrupt, "anything",
                                      attempt));
}

TEST(FaultSpec, PercentSelectionIsDeterministicPerName)
{
    // The seeded per-name draw must not depend on call order, attempt
    // number or plan instance — only on (seed, name).
    FaultPlan a = mustParse("exception:%50@7");
    FaultPlan b = mustParse("exception:%50@7");
    const std::vector<std::string> names = {"mcf",  "hmmer", "omnetpp",
                                            "tpcc", "milc",  "gobmk"};
    unsigned selected = 0;
    for (const auto &n : names) {
        bool first = a.shouldInject(FaultKind::WorkerThrow, n, 1);
        EXPECT_EQ(first, a.shouldInject(FaultKind::WorkerThrow, n, 3));
        EXPECT_EQ(first, b.shouldInject(FaultKind::WorkerThrow, n, 1));
        selected += first;
    }
    FaultPlan other = mustParse("exception:%50@8");
    unsigned other_selected = 0;
    for (const auto &n : names)
        other_selected += other.shouldInject(FaultKind::WorkerThrow, n, 1);
    // 0% and 100% must behave as stated regardless of seed.
    FaultPlan none = mustParse("exception:%0@7");
    FaultPlan all = mustParse("exception:%100@7");
    for (const auto &n : names) {
        EXPECT_FALSE(none.shouldInject(FaultKind::WorkerThrow, n, 1));
        EXPECT_TRUE(all.shouldInject(FaultKind::WorkerThrow, n, 1));
    }
    (void)selected;
    (void)other_selected;
}

// --------------------------- Watchdog ----------------------------

TEST(WatchdogBudget, CycleCeilingTrips)
{
    Watchdog wd(RunBudget{/*maxCycles=*/100, /*stallWindowCycles=*/0});
    EXPECT_FALSE(wd.poll(50, 1).has_value());
    EXPECT_FALSE(wd.poll(100, 2).has_value()) << "ceiling is inclusive";
    auto err = wd.poll(101, 3);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->category, ErrorCategory::BudgetExceeded);
}

TEST(WatchdogBudget, StallWindowTripsOnlyWithoutProgress)
{
    Watchdog wd(RunBudget{/*maxCycles=*/0, /*stallWindowCycles=*/100});
    EXPECT_FALSE(wd.poll(0, 0).has_value());
    EXPECT_FALSE(wd.poll(100, 0).has_value());
    // Retiring an instruction resets the window...
    EXPECT_FALSE(wd.poll(90, 1).has_value());
    EXPECT_FALSE(wd.poll(190, 1).has_value());
    // ...and only a full windowless stretch trips it.
    auto err = wd.poll(191, 1);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->category, ErrorCategory::BudgetExceeded);
}

TEST(WatchdogBudget, UnlimitedBudgetNeverTrips)
{
    RunBudget none = RunBudget::unlimited();
    EXPECT_FALSE(none.limited());
    Watchdog wd(none);
    EXPECT_FALSE(wd.poll(1ULL << 40, 0).has_value());
}

// ---------------------- Isolated execution -----------------------

IsolationOptions
optsWith(const FaultPlan &plan)
{
    IsolationOptions opts;
    opts.plan = &plan;
    opts.backoffMs = 0; // keep the test fast; pacing is not under test
    return opts;
}

/**
 * The acceptance scenario: 3 of 5 workloads carry injected faults (one
 * per containment path); the campaign completes with exactly 3
 * structured failures and the other slots bitwise-identical to a
 * fault-free campaign at any job count.
 */
TEST(IsolatedExecution, ThreeInjectedFaultsAreContainedBitwise)
{
    const std::vector<std::string> names = {"mcf", "hmmer", "omnetpp",
                                            "tpcc", "milc"};
    SimConfig cfg = withCatch(baselineSkx());

    auto baseline = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                         optsWith(kNoFaults));
    ASSERT_EQ(baseline.size(), names.size());
    for (const auto &o : baseline)
        ASSERT_TRUE(o.ok()) << o.workload;

    FaultPlan plan =
        mustParse("trace-corrupt:mcf;exception:tpcc;hang:milc");
    for (unsigned jobs : {1u, 8u, 16u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        auto faulty = runWorkloadsIsolated(cfg, names, kInstr, kWarm,
                                           jobs, optsWith(plan));
        ASSERT_EQ(faulty.size(), names.size());

        unsigned failures = 0;
        for (size_t i = 0; i < names.size(); ++i) {
            EXPECT_EQ(faulty[i].workload, names[i]) << "order stable";
            EXPECT_EQ(faulty[i].config, cfg.name);
            failures += !faulty[i].ok();
        }
        EXPECT_EQ(failures, 3u)
            << "exactly the injected runs may fail";

        // mcf: corrupt trace -> failed, not retried.
        const RunOutcome &mcf = faulty[0];
        ASSERT_FALSE(mcf.ok());
        EXPECT_EQ(mcf.status, RunStatus::Failed);
        EXPECT_EQ(mcf.attempts, 1u);
        ASSERT_TRUE(mcf.failure.has_value());
        EXPECT_EQ(mcf.failure->error.category,
                  ErrorCategory::TraceCorrupt);
        EXPECT_NE(mcf.failure->error.message.find("injected"),
                  std::string::npos);

        // tpcc: thrown exception -> contained as internal.
        const RunOutcome &tpcc = faulty[3];
        ASSERT_FALSE(tpcc.ok());
        EXPECT_EQ(tpcc.status, RunStatus::Failed);
        ASSERT_TRUE(tpcc.failure.has_value());
        EXPECT_EQ(tpcc.failure->error.category, ErrorCategory::Internal);
        EXPECT_NE(tpcc.failure->error.message.find("worker exception"),
                  std::string::npos);

        // milc: hang driven through the real watchdog -> timed out.
        const RunOutcome &milc = faulty[4];
        ASSERT_FALSE(milc.ok());
        EXPECT_EQ(milc.status, RunStatus::TimedOut);
        ASSERT_TRUE(milc.failure.has_value());
        EXPECT_EQ(milc.failure->error.category,
                  ErrorCategory::BudgetExceeded);

        // Unaffected slots: bitwise-identical to the fault-free run.
        for (size_t i : {size_t(1), size_t(2)}) {
            EXPECT_EQ(faulty[i].status, RunStatus::Ok) << names[i];
            expectBitwiseEqual(baseline[i].result, faulty[i].result);
        }
    }
}

TEST(IsolatedExecution, TransientErrorRetriesAndRecovers)
{
    const std::vector<std::string> names = {"hmmer"};
    SimConfig cfg = baselineSkx();

    auto clean = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                      optsWith(kNoFaults));
    ASSERT_TRUE(clean[0].ok());

    FaultPlan plan = mustParse("io-transient:hmmer");
    auto retried = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                        optsWith(plan));
    ASSERT_EQ(retried.size(), 1u);
    ASSERT_TRUE(retried[0].ok());
    EXPECT_EQ(retried[0].status, RunStatus::Retried);
    EXPECT_EQ(retried[0].attempts, 2u);
    expectBitwiseEqual(clean[0].result, retried[0].result);
}

TEST(IsolatedExecution, ExhaustedRetriesBecomeAStructuredFailure)
{
    FaultPlan plan = mustParse("io-transient:hmmer:x99");
    IsolationOptions opts = optsWith(plan);
    opts.maxAttempts = 2;
    auto out = runWorkloadsIsolated(baselineSkx(), {"hmmer"}, kInstr,
                                    kWarm, 1, opts);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].status, RunStatus::Failed);
    EXPECT_EQ(out[0].attempts, 2u) << "bounded attempt count";
    ASSERT_TRUE(out[0].failure.has_value());
    EXPECT_EQ(out[0].failure->error.category,
              ErrorCategory::IoTransient);
}

TEST(IsolatedExecution, UnknownWorkloadFailsInItsOwnSlot)
{
    const std::vector<std::string> names = {"mcf", "nosuchkernel"};
    auto out = runWorkloadsIsolated(baselineSkx(), names, kInstr, kWarm,
                                    2, optsWith(kNoFaults));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].ok()) << "valid neighbour unaffected";
    ASSERT_FALSE(out[1].ok());
    EXPECT_EQ(out[1].status, RunStatus::Failed);
    ASSERT_TRUE(out[1].failure.has_value());
    EXPECT_EQ(out[1].failure->error.category, ErrorCategory::Config);
    EXPECT_NE(out[1].failure->error.message.find("nosuchkernel"),
              std::string::npos)
        << "error must name the offending workload";
}

TEST(IsolatedExecution, SummaryTalliesEveryStatus)
{
    FaultPlan plan =
        mustParse("trace-corrupt:mcf;hang:milc;io-transient:hmmer");
    const std::vector<std::string> names = {"mcf", "hmmer", "milc",
                                            "omnetpp"};
    auto out = runWorkloadsIsolated(withCatch(baselineSkx()), names,
                                    kInstr, kWarm, 4, optsWith(plan));
    CampaignSummary sum = summarizeOutcomes(out);
    EXPECT_EQ(sum.ok, 1u);
    EXPECT_EQ(sum.retried, 1u);
    EXPECT_EQ(sum.failed, 1u);
    EXPECT_EQ(sum.timedOut, 1u);
    EXPECT_EQ(sum.total(), 4u);
    EXPECT_FALSE(sum.allOk());
}

TEST(IsolatedExecution, RunStatusWireNamesRoundTrip)
{
    for (RunStatus s : {RunStatus::Ok, RunStatus::Retried,
                        RunStatus::Failed, RunStatus::TimedOut}) {
        auto back = runStatusFromName(runStatusName(s));
        ASSERT_TRUE(back.has_value()) << runStatusName(s);
        EXPECT_EQ(*back, s);
    }
    EXPECT_FALSE(runStatusFromName("exploded").has_value());
}

/**
 * MUST REMAIN THE LAST TEST IN THIS BINARY. FaultPlan::global() caches
 * the environment on first use; every other test here passes an
 * explicit plan precisely so this one can observe the first read. It
 * covers the env wiring end to end: CATCH_FAULT_INJECT reaches the
 * global plan, and the reserved "json-export" target makes the suite
 * exporter fail with a transient IO error.
 */
TEST(ZGlobalPlan, EnvSpecReachesGlobalPlanAndExporter)
{
    ASSERT_EQ(::setenv("CATCH_FAULT_INJECT",
                       "io-transient:json-export", 1), 0);
    const FaultPlan &plan = FaultPlan::global();
    ASSERT_TRUE(plan.enabled())
        << "global() must pick up CATCH_FAULT_INJECT (if this fails, "
           "an earlier test initialised the global plan)";
    EXPECT_TRUE(
        plan.shouldInject(FaultKind::IoTransient, "json-export"));
    EXPECT_FALSE(plan.shouldInject(FaultKind::IoTransient, "mcf"));

    ExperimentEnv env;
    env.names = {"mcf"};
    env.instrs = kInstr;
    env.warmup = kWarm;
    std::vector<RunOutcome> outcomes(1);
    std::string path = ::testing::TempDir() + "injected_export.json";
    auto r = writeSuiteJson(path, baselineSkx(), env, outcomes);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().category, ErrorCategory::IoTransient);
    EXPECT_NE(r.error().message.find("injected"), std::string::npos);
    ASSERT_EQ(::unsetenv("CATCH_FAULT_INJECT"), 0);
}

} // namespace
} // namespace catchsim
