/**
 * @file
 * Ablations of the design choices DESIGN.md calls out (and the paper's
 * Section VI-D2 critical-table sensitivity):
 *   - critical-load table capacity (8 / 16 / 32 / 64 / 128)
 *   - DDG walk depth (1x / 2x / 3x ROB)
 *   - TACT deep-self maximum distance (4 / 8 / 16 / 32)
 *   - feeder runahead depth (4 / 8 / 16)
 */

#include "bench/bench_common.hh"

using namespace catchsim;

namespace
{

/** @p cfg's geomean gain over @p base; adds its failed runs to
 *  @p failed. */
double
gain(const std::vector<SimResult> &base, const SimConfig &cfg,
     const ExperimentEnv &env, size_t &failed)
{
    auto rs = runSuite(cfg, env);
    failed += failedRuns(rs);
    return overallGeomean(base, rs) - 1.0;
}

} // namespace

int
main()
{
    banner("Ablation", "CATCH design-parameter sensitivity");
    ExperimentEnv env = ExperimentEnv::fromEnvironment();
    // Ablate on the two-level CATCH configuration, reported as gain over
    // the three-level baseline.
    auto rb = runSuite(baselineSkx(), env);
    size_t failed = failedRuns(rb);
    SimConfig catch2 = withCatch(noL2(baselineSkx(), 9728));

    TablePrinter table({"knob", "value", "gain vs baseline"});

    for (uint32_t entries : {8u, 16u, 32u, 64u, 128u}) {
        SimConfig cfg = catch2;
        cfg.name = "table" + std::to_string(entries);
        cfg.criticality.tableEntries = entries;
        cfg.criticality.tableWays = entries >= 8 ? 8 : entries;
        table.addRow({"critical-table entries", std::to_string(entries),
                      formatPercent(gain(rb, cfg, env, failed))});
    }

    for (double walk : {1.0, 2.0, 3.0}) {
        SimConfig cfg = catch2;
        cfg.name = "walk" + formatDouble(walk, 1);
        cfg.criticality.walkFactor = walk;
        cfg.criticality.graphFactor = walk + 0.5;
        table.addRow({"DDG walk depth (x ROB)", formatDouble(walk, 1),
                      formatPercent(gain(rb, cfg, env, failed))});
    }

    for (uint32_t dist : {4u, 8u, 16u, 32u}) {
        SimConfig cfg = catch2;
        cfg.name = "deep" + std::to_string(dist);
        cfg.tact.deepMaxDistance = dist;
        table.addRow({"deep-self max distance", std::to_string(dist),
                      formatPercent(gain(rb, cfg, env, failed))});
    }

    for (uint32_t depth : {4u, 8u, 16u}) {
        SimConfig cfg = catch2;
        cfg.name = "feeder" + std::to_string(depth);
        cfg.tact.feederDepth = depth;
        table.addRow({"feeder runahead depth", std::to_string(depth),
                      formatPercent(gain(rb, cfg, env, failed))});
    }

    table.print();
    return failed ? 1 : 0;
}
