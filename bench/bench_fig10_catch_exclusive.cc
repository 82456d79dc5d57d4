/**
 * @file
 * Figure 10: CATCH on the large-L2 exclusive-LLC baseline.
 * Configurations (speedup vs baseline, paper geomeans in parentheses):
 *   NoL2 + 6.5 MB LLC            (-7.79%)
 *   NoL2 + 9.5 MB LLC            (-5.12%)
 *   NoL2 + 6.5 MB LLC + CATCH    (+4.55%)
 *   NoL2 + 9.5 MB LLC + CATCH    (+7.23%)
 *   CATCH on the 3-level baseline (+8.41%)
 */

#include "bench/bench_common.hh"

using namespace catchsim;

int
main()
{
    banner("Figure 10", "CATCH on the 1MB-L2 / 5.5MB-exclusive baseline");
    ExperimentEnv env = ExperimentEnv::fromEnvironment();

    SimConfig base = baselineSkx();
    auto rb = runSuite(base, env);
    auto r65 = runSuite(noL2(base, 6656), env);
    auto r95 = runSuite(noL2(base, 9728), env);
    auto r65c = runSuite(withCatch(noL2(base, 6656)), env);
    auto r95c = runSuite(withCatch(noL2(base, 9728)), env);
    auto rc = runSuite(withCatch(base), env);

    printCategoryTable(
        rb, {r65, r95, r65c, r95c, rc},
        {"NoL2+6.5", "NoL2+9.5", "NoL2+6.5+CATCH", "NoL2+9.5+CATCH",
         "CATCH"},
        {-0.0779, -0.0512, 0.0455, 0.0723, 0.0841});
    return failedRuns(rb, r65, r95, r65c, r95c, rc) ? 1 : 0;
}
