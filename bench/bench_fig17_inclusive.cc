/**
 * @file
 * Figure 17: CATCH on the client-style inclusive baseline (256 KB L2 +
 * 8 MB inclusive LLC). Paper geomeans vs that baseline:
 *   NoL2 (8 MB)            -5.74%
 *   NoL2 + CATCH           +6.43%
 *   NoL2 + CATCH + 9MB LLC +7.22%   (L2 area folded into the LLC)
 *   CATCH on the 3-level   +10.29%
 */

#include "bench/bench_common.hh"

using namespace catchsim;

int
main()
{
    banner("Figure 17", "CATCH on the 256KB-L2 / 8MB-inclusive baseline");
    ExperimentEnv env = ExperimentEnv::fromEnvironment();

    SimConfig base = baselineClient();
    auto rb = runSuite(base, env);
    auto rn = runSuite(noL2(base, 8192), env);
    auto rnc = runSuite(withCatch(noL2(base, 8192)), env);
    auto rnc9 = runSuite(withCatch(noL2(base, 9216)), env);
    auto rc = runSuite(withCatch(base), env);

    printCategoryTable(rb, {rn, rnc, rnc9, rc},
                       {"noL2", "noL2+CATCH", "noL2+CATCH+9MB", "CATCH"},
                       {-0.0574, 0.0643, 0.0722, 0.1029});
    return failedRuns(rb, rn, rnc, rnc9, rc) ? 1 : 0;
}
