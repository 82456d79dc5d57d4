/**
 * @file
 * Experiment harness shared by the bench binaries: suite runners,
 * per-category geomean speedups, and environment-variable knobs.
 *
 * Environment knobs:
 *   CATCH_FULL=1     run the full 70-workload suite (default: quick list)
 *   CATCH_INSTR=N    measured instructions per run (default 300000)
 *   CATCH_WARMUP=N   warmup instructions per run (default 100000)
 *   CATCH_JOBS=N     parallel simulation jobs (default: hardware
 *                    concurrency; 1 restores the serial path). Results
 *                    are bitwise-identical for any job count.
 *   CATCH_JSON=DIR   also write one machine-readable JSON file per
 *                    runSuite() call into DIR (see writeSuiteJson)
 *   CATCH_RESULT_STORE=DIR  content-hashed incremental result store:
 *                    unchanged (config, workload, length) cells are
 *                    served from DIR instead of re-executing, so a
 *                    killed or rerun campaign re-executes only its
 *                    failed and unfinished cells (sim/result_store.hh)
 *   CATCH_STORE=1    in-memory memo stores for generated trace chunks
 *                    (trace/chunk_store.hh, 256 MB) and warmed-state
 *                    snapshots (sim/warm_state.hh, 128 MB). Sampled
 *                    runs restore the global functional-warming state
 *                    instead of re-deriving it; sweeps that vary only
 *                    timing knobs share snapshots
 *   CATCH_MAX_ATTEMPTS / CATCH_BACKOFF_MS / CATCH_MAX_CYCLES /
 *   CATCH_STALL_WINDOW  fault-containment knobs (see IsolationOptions
 *                    and RunBudget)
 */

#ifndef CATCHSIM_SIM_EXPERIMENT_HH_
#define CATCHSIM_SIM_EXPERIMENT_HH_

#include <map>
#include <string>
#include <vector>

#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"

namespace catchsim
{

/** Suite selection + run lengths from the environment. */
struct ExperimentEnv
{
    std::vector<std::string> names;
    uint64_t instrs;
    uint64_t warmup;
    /** Simulation jobs; CATCH_JOBS (default: hardware concurrency). */
    unsigned jobs = 1;
    /** Directory for per-suite JSON exports; empty disables them. */
    std::string jsonDir;
    /** Directory for the content-hashed result store; empty disables
     *  it (CATCH_RESULT_STORE). */
    std::string resultStoreDir;
    /** Fault-containment knobs (watchdog budget, retries, backoff). */
    IsolationOptions isolation;

    static ExperimentEnv fromEnvironment();
};

/**
 * Fault-contained suite run on env.jobs threads: outcomes[i] belongs to
 * env.names[i] and is bitwise-identical regardless of the job count;
 * failed runs occupy their own slots as structured failures instead of
 * aborting the campaign. Prints one progress mark per run ('.' ok,
 * 'r' retried, 'F' failed, 'T' timed out, 'C' crashed, 'h' served from
 * the result store), a campaign summary when anything was abnormal,
 * and one warning per failure. When env.resultStoreDir is set, cells
 * whose content key is already stored replay from the store and fresh
 * successes persist back to it, so a restarted campaign re-executes
 * only unfinished ones. When env.jsonDir is set, writes
 * <jsonDir>/<config-name>.json with per-run status and the campaign
 * summary (a "-2", "-3", ... suffix disambiguates repeated config
 * names within one process). Per-run worker processes are
 * catchsim --isolate's business (sim/supervisor.hh), not the benches'.
 */
std::vector<RunOutcome> runSuiteIsolated(const SimConfig &cfg,
                                         const ExperimentEnv &env);

/**
 * Results-only wrapper over runSuiteIsolated for benches that tabulate
 * SimResults directly: failed runs leave a default-initialised
 * SimResult (workload/config set) in their slot after warning.
 */
std::vector<SimResult> runSuite(const SimConfig &cfg,
                                const ExperimentEnv &env);

/**
 * Writes a suite's outcomes as one JSON document (atomically, via a
 * .tmp rename; the error names the path and cause): a campaign summary
 * object, then one entry per run carrying from_store/status/attempts
 * and either the full result or the structured error.
 */
Expected<void> writeSuiteJson(const std::string &path,
                              const SimConfig &cfg,
                              const ExperimentEnv &env,
                              const std::vector<RunOutcome> &outcomes);

/**
 * Per-workload speedups of @p test over @p base (paired by index) and
 * their geometric means: per category plus an overall "GeoMean" entry.
 * Categories appear in the paper's order.
 */
std::vector<std::pair<std::string, double>>
categoryGeomeans(const std::vector<SimResult> &base,
                 const std::vector<SimResult> &test);

/** Overall geomean speedup of @p test over @p base. */
double overallGeomean(const std::vector<SimResult> &base,
                      const std::vector<SimResult> &test);

/** Sums a counter over a suite's results. */
template <typename Fn>
double
sumOver(const std::vector<SimResult> &rs, Fn fn)
{
    double total = 0;
    for (const auto &r : rs)
        total += static_cast<double>(fn(r));
    return total;
}

} // namespace catchsim

#endif // CATCHSIM_SIM_EXPERIMENT_HH_
