/**
 * @file
 * Figure 4: the criticality demotion oracles. For each boundary, serve
 * either ALL hits or only NON-CRITICAL hits (per the hardware detector)
 * at the next level's latency, and report the perf impact plus the
 * fraction of loads converted. Paper:
 *   L1 hits at L2 latency:   ALL -16.07%, non-critical -4.86% (49.15%)
 *   L2 hits at LLC latency:  ALL -7.79%,  non-critical -0.76% (39.63%)
 *   LLC hits at mem latency: ALL -7.01%,  non-critical -1.17% (33.02%)
 * Shape: demoting non-critical L2 hits is nearly free; the L1 is not.
 */

#include "bench/bench_common.hh"

using namespace catchsim;

int
main()
{
    banner("Figure 4", "impact of increasing non-critical load latency");
    ExperimentEnv env = ExperimentEnv::fromEnvironment();

    SimConfig base = baselineSkx();
    auto rb = runSuite(base, env);
    size_t failed = failedRuns(rb);

    struct Case
    {
        const char *name;
        DemoteMode mode;
        bool needs_detector;
        double paper;
    };
    const Case cases[] = {
        {"L1->L2 ALL", DemoteMode::L1ToL2All, false, -0.1607},
        {"L1->L2 NonCritical", DemoteMode::L1ToL2NonCrit, true, -0.0486},
        {"L2->LLC ALL", DemoteMode::L2ToLlcAll, false, -0.0779},
        {"L2->LLC NonCritical", DemoteMode::L2ToLlcNonCrit, true,
         -0.0076},
        {"LLC->Mem ALL", DemoteMode::LlcToMemAll, false, -0.0701},
        {"LLC->Mem NonCritical", DemoteMode::LlcToMemNonCrit, true,
         -0.0117},
    };

    TablePrinter table({"oracle", "perf impact", "% loads converted",
                        "paper impact"});
    for (const Case &c : cases) {
        SimConfig cfg = base;
        cfg.name = c.name;
        cfg.oracle.demote = c.mode;
        if (c.needs_detector)
            cfg.criticality.enabled = true;
        auto rs = runSuite(cfg, env);
        failed += failedRuns(rs);
        double converted =
            sumOver(rs, [](const SimResult &r) {
                return r.hier.demotedLoads;
            }) /
            sumOver(rs, [](const SimResult &r) { return r.hier.loads; });
        table.addRow({c.name,
                      formatPercent(overallGeomean(rb, rs) - 1.0),
                      formatPercent(converted),
                      formatPercent(c.paper)});
    }
    table.print();
    return failed ? 1 : 0;
}
