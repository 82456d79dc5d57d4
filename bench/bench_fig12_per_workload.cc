/**
 * @file
 * Figure 12: per-workload performance ratios over the exclusive-LLC
 * baseline for NoL2+6.5MB, NoL2+9.5MB+CATCH and CATCH-on-baseline.
 *
 * The paper's named observations to check:
 *   - hmmer loses ~40% without the L2; CATCH brings the loss under 5%
 *   - TACT-Feeder lifts mcf from a ~30% loss to a large gain
 *   - namd/gromacs (unprefetchable chases) are not fully recovered
 *   - povray (more critical PCs than the 32-entry table) is limited
 */

#include "bench/bench_common.hh"

using namespace catchsim;

int
main()
{
    banner("Figure 12", "per-workload performance ratios vs baseline");
    ExperimentEnv env = ExperimentEnv::fromEnvironment();

    SimConfig base = baselineSkx();
    auto rb = runSuite(base, env);
    auto r65 = runSuite(noL2(base, 6656), env);
    auto r95c = runSuite(withCatch(noL2(base, 9728)), env);
    auto rc = runSuite(withCatch(base), env);

    TablePrinter table({"workload", "cat", "baseIPC", "NoL2+6.5",
                        "NoL2+9.5+CATCH", "CATCH", "critPCs", "tactPf"});
    for (size_t i = 0; i < rb.size(); ++i) {
        table.addRow({rb[i].workload,
                      categoryName(rb[i].category),
                      formatDouble(rb[i].ipc, 3),
                      formatDouble(r65[i].ipc / rb[i].ipc, 3),
                      formatDouble(r95c[i].ipc / rb[i].ipc, 3),
                      formatDouble(rc[i].ipc / rb[i].ipc, 3),
                      std::to_string(rc[i].activeCriticalPcs),
                      std::to_string(rc[i].hier.tactPrefetches)});
    }
    table.print();
    return failedRuns(rb, r65, r95c, rc) ? 1 : 0;
}
