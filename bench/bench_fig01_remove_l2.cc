/**
 * @file
 * Figure 1: performance impact of removing the L2 from the Skylake-like
 * baseline (1 MB L2 + 5.5 MB exclusive LLC), for the same-capacity
 * (NoL2 + 6.5 MB LLC) and iso-area (NoL2 + 9.5 MB LLC) configurations.
 * Paper: -7.79% and -5.12% geomean respectively.
 */

#include "bench/bench_common.hh"

using namespace catchsim;

int
main()
{
    banner("Figure 1", "performance impact of removing the L2");
    ExperimentEnv env = ExperimentEnv::fromEnvironment();

    SimConfig base = baselineSkx();
    auto rb = runSuite(base, env);
    auto r65 = runSuite(noL2(base, 6656), env);
    auto r95 = runSuite(noL2(base, 9728), env);

    printCategoryTable(rb, {r65, r95},
                       {"NoL2+6.5MB LLC", "NoL2+9.5MB LLC"},
                       {-0.0779, -0.0512});
    return failedRuns(rb, r65, r95) ? 1 : 0;
}
