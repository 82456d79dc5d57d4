/**
 * @file
 * Parallel suite execution with determinism and fault-containment
 * guarantees.
 *
 * Every (SimConfig, workload) simulation is independent: each run owns
 * its Simulator, its trace (generated from the workload's own seed) and
 * a pre-assigned slot in the results vector, so the output is
 * bitwise-identical and order-stable for any job count. Workloads are
 * dispatched longest-estimated-first (LPT) to minimise makespan.
 *
 * runWorkloadsIsolated() adds per-run fault containment on top: a run
 * that fails — thrown exception, corrupt trace, config error, watchdog
 * trip — records a structured RunFailure in its own slot instead of
 * taking the campaign down, transient IO errors retry with a bounded
 * deterministic attempt count, and a ResultStore (when attached)
 * replays finished runs from a previous campaign. Slots of successful
 * runs stay bitwise-identical to a fault-free campaign at any job
 * count.
 *
 * The job count comes from CATCH_JOBS (default: hardware concurrency;
 * 1 restores the exact serial behaviour).
 */

#ifndef CATCHSIM_SIM_PARALLEL_RUNNER_HH_
#define CATCHSIM_SIM_PARALLEL_RUNNER_HH_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hh"
#include "sim/mp_simulator.hh"
#include "sim/run_guard.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"

namespace catchsim
{

class JsonReader;
class JsonWriter;
class ResultStore;

/** CATCH_JOBS env knob; default hardware concurrency, minimum 1. */
unsigned suiteJobs();

/** How one isolated run ended. */
enum class RunStatus : uint8_t
{
    Ok,       ///< succeeded on the first attempt
    Retried,  ///< succeeded after >= 1 transient-error retry
    Failed,   ///< exhausted retries or hit a non-transient error
    TimedOut, ///< watchdog budget exceeded (hang contained)
    Crashed,  ///< worker process died / hung / failed to exec
              ///< (process-isolated mode only; see sim/supervisor.hh)
};

const char *runStatusName(RunStatus s);
std::optional<RunStatus> runStatusFromName(const std::string &name);

/** Structured record of a run that did not produce a result. */
struct RunFailure
{
    SimError error;
    unsigned attempts = 1; ///< attempts consumed, including the last
};

/** One slot of an isolated campaign: a result or a contained failure. */
struct RunOutcome
{
    std::string workload;
    std::string config;
    RunStatus status = RunStatus::Ok;
    unsigned attempts = 1;
    /// Served from the content-hashed result store, not re-executed
    /// (sim/result_store.hh).
    bool fromStore = false;
    /// Executed while a result store was attached (i.e. the store was
    /// consulted and missed); feeds CampaignSummary::storeMisses.
    bool storeMiss = false;
    SimResult result;     ///< valid iff ok()
    std::optional<RunFailure> failure; ///< set iff !ok()
    /// Host phase timings + peak RSS; set iff ok() and profiling was
    /// requested (IsolationOptions::profile). Never stored: wall clock
    /// is not reproducible, so store hits carry no profile.
    std::optional<RunProfile> profile;

    bool
    ok() const
    {
        return status == RunStatus::Ok || status == RunStatus::Retried;
    }
};

/** Campaign-level tallies for the summary line and the JSON export. */
struct CampaignSummary
{
    uint64_t ok = 0;
    uint64_t retried = 0;
    uint64_t failed = 0;
    uint64_t timedOut = 0;
    uint64_t crashed = 0; ///< worker processes lost (isolated mode)
    uint64_t storeHits = 0;   ///< slots served from the result store
    uint64_t storeMisses = 0; ///< slots executed past a store lookup

    uint64_t
    total() const
    {
        return ok + retried + failed + timedOut + crashed;
    }

    bool
    allOk() const
    {
        return failed == 0 && timedOut == 0 && crashed == 0;
    }
};

CampaignSummary summarizeOutcomes(const std::vector<RunOutcome> &outcomes);

/**
 * The one RunOutcome body codec (sim/results_json.cc) behind the worker
 * result frame, the result-store record and the suite export. The
 * writer emits status, attempts, then hostPerf (when profiled) and the
 * result, or the error, into the open object @p w; each caller adds its
 * own envelope keys around it. The reader parses them back into @p out,
 * recording any defect in @p r's error slot and category.
 */
void writeOutcomeBody(JsonWriter &w, const RunOutcome &out);
void readOutcomeBody(const JsonReader &r, RunOutcome &out);

/**
 * Containment knobs for runWorkloadsIsolated.
 *
 * Environment knobs (fromEnvironment, read at startup via env.hh):
 *   CATCH_MAX_ATTEMPTS  attempts per run incl. retries (default 3)
 *   CATCH_BACKOFF_MS    base retry backoff; attempt n sleeps
 *                       n * CATCH_BACKOFF_MS ms (default 100). Purely
 *                       a pacing aid: no wall-clock value enters any
 *                       result, and the attempt count alone decides
 *                       retry behaviour.
 *   CATCH_PROFILE       non-zero: collect host phase timings + peak
 *                       RSS per run (RunOutcome::profile, the JSON
 *                       export's hostPerf object)
 *   CATCH_MAX_CYCLES / CATCH_STALL_WINDOW  see RunBudget.
 *
 * Process-isolation knobs (consumed by sim/supervisor.hh):
 *   CATCH_HEARTBEAT_MS          worker heartbeat period (default 1000)
 *   CATCH_HEARTBEAT_TIMEOUT_MS  wall-clock silence before the
 *                               supervisor SIGKILLs a worker
 *                               (default 30000)
 *   CATCH_WORKER_BIN            worker executable; default
 *                               /proc/self/exe (the current binary
 *                               must then understand --worker)
 */
struct IsolationOptions
{
    RunBudget budget;         ///< default: stall-window guard only
    unsigned maxAttempts = 3; ///< total attempts for transient errors
    unsigned backoffMs = 0;   ///< base sleep between retries (ms)
    bool profile = false;     ///< collect RunProfile per successful run
    /// Injection plan override; null = FaultPlan::global(). Lets tests
    /// drive the harness in-process without touching the environment.
    const FaultPlan *plan = nullptr;
    /// Chunk-store override: unset = ChunkStore::global(); an explicit
    /// value (possibly nullptr, i.e. store disabled) wins. Lets tests
    /// permute store states in-process without touching the
    /// environment. Resolved once on the calling thread.
    std::optional<ChunkStore *> store;
    /// Warmed-state store override with the same semantics: unset =
    /// WarmStateStore::global(), an explicit value (possibly nullptr)
    /// wins. Resolved once on the calling thread.
    std::optional<WarmStateStore *> warmStore;
    /// Content-hashed result store (sim/result_store.hh); null
    /// disables it. Consulted during campaign planning; successful
    /// fresh executions are persisted back.
    ResultStore *resultStore = nullptr;

    // Process-isolated execution (sim/supervisor.hh) only:
    unsigned heartbeatMs = 1000;        ///< worker heartbeat period
    unsigned heartbeatTimeoutMs = 30000; ///< supervisor kill threshold
    std::string workerBin; ///< worker executable; empty = /proc/self/exe

    static IsolationOptions fromEnvironment();
};

/**
 * Fault-contained parallel equivalent of the serial workload loop:
 * outcomes[i] describes the run of @p names[i], independent of
 * @p jobs. Worker exceptions, trace corruption, config errors and
 * watchdog trips are recorded as structured failures in their own
 * slots; transient IO errors retry up to opts.maxAttempts times.
 * When opts.resultStore is set, runs it already holds are replayed
 * without re-execution and fresh successes are persisted to it.
 * @p progress (optional) is invoked from workers as runs finish; it
 * must be thread-safe.
 */
std::vector<RunOutcome>
runWorkloadsIsolated(const SimConfig &cfg,
                     const std::vector<std::string> &names,
                     uint64_t instrs, uint64_t warmup, unsigned jobs,
                     const IsolationOptions &opts = {},
                     const std::function<void(const RunOutcome &)>
                         &progress = nullptr);

/**
 * One fault-contained run: retries transient errors with a bounded
 * attempt count and converts exceptions and watchdog trips into
 * structured failures in the returned outcome. This is the unit of
 * work both executors share: runWorkloadsIsolated calls it on pool
 * threads, and the --worker process (sim/worker_proto.hh) calls it as
 * its whole job — which is what keeps in-process and process-isolated
 * campaigns bitwise-identical. Consults only opts.budget/maxAttempts/
 * backoffMs/profile/plan; the result store is the caller's concern.
 */
RunOutcome executeContainedRun(const SimConfig &cfg,
                               const std::string &name, uint64_t instrs,
                               uint64_t warmup,
                               const IsolationOptions &opts,
                               ChunkStore *store,
                               WarmStateStore *warm_store =
                                   WarmStateStore::global());

/**
 * Campaign planning both executors share, run on the calling thread
 * before any worker starts: slots opts.resultStore holds replay under
 * this campaign's config name, each reported through @p progress.
 * Returns the indices still to execute.
 */
std::vector<size_t>
replayFinishedRuns(const SimConfig &cfg,
                   const std::vector<std::string> &names, uint64_t instrs,
                   uint64_t warmup, const IsolationOptions &opts,
                   std::vector<RunOutcome> &outcomes,
                   const std::function<void(const RunOutcome &)> &progress);

/**
 * Books a freshly executed slot: marks the result-store miss and
 * persists a success to the store. Thread-safe.
 */
void recordFreshRun(const SimConfig &cfg, uint64_t instrs,
                    uint64_t warmup, const IsolationOptions &opts,
                    RunOutcome &out);

/**
 * Relative wall-clock cost estimate for one workload run, used to order
 * dispatch longest-first. Server/HPC kernels carry large footprints
 * (trace setup + DRAM-heavy simulation) and dominate the makespan.
 * Unknown names cost 1.0 (they fail fast in their own slot).
 */
double workloadCostEstimate(const std::string &name);

/**
 * Runs @p tasks on @p jobs threads, dispatching in descending @p cost
 * order. Each task must write only to its own pre-assigned output.
 * @p jobs <= 1 runs serially, in index order, on the calling thread.
 */
void runTasksLongestFirst(std::vector<std::function<void()>> tasks,
                          const std::vector<double> &cost, unsigned jobs);

/**
 * Legacy results-only wrapper over runWorkloadsIsolated: results[i] is
 * the run of @p names[i], independent of @p jobs. Failed runs warn and
 * leave a default-initialised SimResult (workload/config set) in their
 * slot; callers that need structured failures use the isolated API.
 */
std::vector<SimResult>
runWorkloadsParallel(const SimConfig &cfg,
                     const std::vector<std::string> &names,
                     uint64_t instrs, uint64_t warmup, unsigned jobs,
                     const std::function<void(const SimResult &)>
                         &progress = nullptr);

/**
 * Solo IPCs of every distinct workload appearing in @p mixes on
 * @p cfg, computed in parallel. The map replaces the serial memoised
 * SoloCache the MP benches used.
 */
std::map<std::string, double>
soloIpcsParallel(const SimConfig &cfg, const std::vector<MpMix> &mixes,
                 uint64_t instrs, uint64_t warmup, unsigned jobs);

/**
 * Runs every mix on @p cfg in parallel; results[i] corresponds to
 * mixes[i] regardless of job count. @p solo must cover every workload
 * named by @p mixes (see soloIpcsParallel).
 */
std::vector<MpResult>
runMixesParallel(const SimConfig &cfg, const std::vector<MpMix> &mixes,
                 uint64_t instrs, uint64_t warmup,
                 const std::map<std::string, double> &solo, unsigned jobs);

} // namespace catchsim

#endif // CATCHSIM_SIM_PARALLEL_RUNNER_HH_
