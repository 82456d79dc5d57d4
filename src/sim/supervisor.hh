/**
 * @file
 * Process-isolated campaign execution: one worker process per run.
 *
 * runWorkloadsSupervised() is the process-level sibling of
 * runWorkloadsIsolated(): same outcome-per-slot contract, same
 * result-store semantics, but every run executes in its own
 * fork/exec'd worker process (the hidden --worker mode of the catch
 * binary, sim/worker_proto.hh). A crash in any run — SIGSEGV inside
 * the simulator, an abort, the OOM killer — ends that worker process
 * and becomes a typed Crashed RunFailure in its slot; the campaign and
 * its result store survive.
 *
 * Supervision state machine, per slot:
 *
 *   spawn -> streaming (heartbeats/result) -> EOF -> classify
 *     classify ok        -> commit result (Retried if restarts happened)
 *     classify crashed   -> restart with backoff while attempts remain,
 *     classify exec-fail    else commit a Crashed failure
 *     watchdog expired   -> SIGKILL -> commit heartbeat-timeout
 *                           (never restarted: hangs are not transient)
 *
 * The watchdog here is WALL-CLOCK: a worker whose heartbeat goes
 * silent for CATCH_HEARTBEAT_TIMEOUT_MS is SIGKILLed. It complements —
 * not replaces — the simulated-cycle watchdog (sim/run_guard.hh),
 * which still runs inside the worker and reports budget-exceeded as a
 * typed in-band failure. The wall-clock layer catches what the
 * simulated-cycle layer cannot: a worker stuck before or outside the
 * simulation loop, or one that is dead without an exit status yet.
 *
 * Determinism: successful slots are bitwise-identical to an in-process
 * campaign at any worker count. The request carries the exact
 * SimConfig (configToJson round-trips bitwise) and workers run
 * executeContainedRun — the identical unit of work — so only the
 * transport differs. No wall-clock value enters any result; the clock
 * only decides when to kill an already-hung worker.
 */

#ifndef CATCHSIM_SIM_SUPERVISOR_HH_
#define CATCHSIM_SIM_SUPERVISOR_HH_

#include <functional>
#include <string>
#include <vector>

#include "sim/parallel_runner.hh"

namespace catchsim
{

/**
 * Runs @p names[i] -> outcomes[i] with each run in its own worker
 * process; at most @p jobs workers are alive at once. Result-store
 * lookups happen on the calling thread before any worker spawns,
 * exactly as in runWorkloadsIsolated. opts.workerBin
 * selects the worker executable (default /proc/self/exe, which must
 * understand --worker); opts.heartbeatMs / opts.heartbeatTimeoutMs
 * configure the wall-clock watchdog. @p progress runs on the calling
 * thread as slots finish.
 */
std::vector<RunOutcome>
runWorkloadsSupervised(const SimConfig &cfg,
                       const std::vector<std::string> &names,
                       uint64_t instrs, uint64_t warmup, unsigned jobs,
                       const IsolationOptions &opts = {},
                       const std::function<void(const RunOutcome &)>
                           &progress = nullptr);

} // namespace catchsim

#endif // CATCHSIM_SIM_SUPERVISOR_HH_
