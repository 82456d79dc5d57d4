/**
 * @file
 * Process-isolated campaign execution: one worker process per run.
 *
 * superviseRun() is the per-slot function runWorkloadsSupervised()
 * (sim/parallel_runner.hh) runs on the shared slot runner, the
 * process-level sibling of executeContainedRun(): same outcome-per-slot
 * contract, but the run executes in its own fork/exec'd worker process
 * (the hidden --worker mode of the catch binary, sim/worker_proto.hh).
 * A crash in any run — SIGSEGV inside the simulator, an abort, the OOM
 * killer — ends that worker process and becomes a typed Crashed
 * RunFailure in its slot; the campaign and its result store survive.
 * The slot's thread waits on that one worker's pipe, so a hung worker
 * holds only its own slot, and the campaign's progress callback runs
 * on those slot threads, as in runWorkloadsIsolated().
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

#include <string>

#include "sim/parallel_runner.hh"

namespace catchsim
{

/**
 * Runs @p name in one worker process at a time until it yields an
 * outcome: a result frame, or a typed Crashed failure once a crash or
 * exec failure has used opts.maxAttempts processes (restarts pace with
 * pauseBeforeRetry) or the worker's heartbeat went silent for
 * opts.heartbeatTimeoutMs. opts.workerBin selects the worker executable
 * (default /proc/self/exe, which must understand --worker). Blocks the
 * calling thread for the worker's lifetime; the caller must keep
 * SIGPIPE ignored, as runWorkloadsSupervised does.
 */
RunOutcome superviseRun(const SimConfig &cfg, const std::string &name,
                        uint64_t instrs, uint64_t warmup,
                        const IsolationOptions &opts);

} // namespace catchsim

#endif // CATCHSIM_SIM_SUPERVISOR_HH_
