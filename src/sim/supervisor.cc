#include "sim/supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <optional>

#include "common/fault_inject.hh"
#include "common/host_clock.hh"
#include "common/logging.hh"
#include "sim/worker_proto.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

namespace catchsim
{

namespace
{

/** Exit code reserved for "exec itself failed" in the child. */
constexpr int kExecFailExit = 127;

/** One spawned worker process. */
struct WorkerProc
{
    pid_t pid = -1;
    int outFd = -1; ///< read end of the worker's stdout
};

/**
 * fork/execs one worker and sends it its request. The worker inherits
 * the environment (the fault plan) and the supervisor's
 * stderr; its stdin/stdout carry the frame protocol. Returns a config
 * error only for supervisor-side infrastructure failures (pipe/fork);
 * a binary that cannot exec is reported by the child via exit 127 and
 * classified at EOF like every other death.
 */
Expected<WorkerProc>
spawnWorker(const std::string &bin, const SimConfig &cfg,
            const std::string &name, uint64_t instrs, uint64_t warmup,
            unsigned attempt, const IsolationOptions &opts,
            const FaultPlan &plan)
{
    std::string exec_path = bin;
    // exec-fail injection happens supervisor-side: the child execs a
    // path that cannot exist, producing the real exit-127 signature.
    if (plan.shouldInject(FaultKind::ExecFail, name, attempt))
        exec_path = "/nonexistent/catchsim-exec-fail-injection";

    int in_pipe[2];  // supervisor -> worker stdin
    int out_pipe[2]; // worker stdout -> supervisor
    if (pipe2(in_pipe, O_CLOEXEC) != 0)
        return simError(ErrorCategory::ExecFail,
                        "cannot create worker stdin pipe (errno ",
                        errno, ")");
    if (pipe2(out_pipe, O_CLOEXEC) != 0) {
        ::close(in_pipe[0]);
        ::close(in_pipe[1]);
        return simError(ErrorCategory::ExecFail,
                        "cannot create worker stdout pipe (errno ",
                        errno, ")");
    }

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(in_pipe[0]);
        ::close(in_pipe[1]);
        ::close(out_pipe[0]);
        ::close(out_pipe[1]);
        return simError(ErrorCategory::ExecFail,
                        "cannot fork worker (errno ", errno, ")");
    }
    if (pid == 0) {
        // Child. dup2 clears O_CLOEXEC on the standard fds; every
        // other pipe end closes itself across the exec.
        if (::dup2(in_pipe[0], STDIN_FILENO) < 0 ||
            ::dup2(out_pipe[1], STDOUT_FILENO) < 0)
            ::_exit(kExecFailExit);
        char arg_worker[] = "--worker";
        char *argv[] = {const_cast<char *>(exec_path.c_str()),
                        arg_worker, nullptr};
        ::execv(exec_path.c_str(), argv);
        ::_exit(kExecFailExit);
    }

    ::close(in_pipe[0]);
    ::close(out_pipe[1]);

    // The request is tiny (well under PIPE_BUF), so this cannot block
    // indefinitely; if the child is already dead the write fails with
    // EPIPE (ignored — classification happens at EOF).
    (void)writeFrame(in_pipe[1],
                     buildWorkerRequest(cfg, name, instrs, warmup,
                                        attempt, opts));
    ::close(in_pipe[1]);
    return WorkerProc{pid, out_pipe[0]};
}

/**
 * Runs one worker process to its end: spawns it, reads its stream
 * until EOF under the wall-clock watchdog, reaps it and classifies how
 * it ended. Returns the worker's outcome, or the error that explains
 * why there is none, in this priority: watchdog kill, protocol error,
 * result frame, fatal signal, exit 127 (the reserved exec-fail
 * signature), nonzero exit, clean exit without a result.
 */
Expected<RunOutcome>
runWorker(const std::string &bin, const SimConfig &cfg,
          const std::string &name, uint64_t instrs, uint64_t warmup,
          unsigned attempt, const IsolationOptions &opts,
          const FaultPlan &plan)
{
    auto spawned = spawnWorker(bin, cfg, name, instrs, warmup, attempt,
                               opts, plan);
    if (!spawned.ok())
        return spawned.error();
    const WorkerProc w = spawned.value();

    const double timeout_sec = opts.heartbeatTimeoutMs / 1000.0;
    double deadline = hostSeconds() + timeout_sec;
    bool hung = false;
    std::string protocol_error; ///< non-empty: stream was corrupt
    std::optional<RunOutcome> result;
    FrameDecoder decoder;
    for (;;) {
        const double left_ms = (deadline - hostSeconds()) * 1000.0;
        if (left_ms <= 0) {
            hung = true; // silence past the budget
            break;
        }
        // One wait lasts at most a second, so an int holds it at any
        // timeout; the loop re-checks the deadline after each.
        pollfd p = {w.outFd, POLLIN, 0};
        if (::poll(&p, 1, static_cast<int>(std::min(std::ceil(left_ms),
                                                    1000.0))) <= 0)
            continue;
        char buf[4096];
        const ssize_t n = ::read(w.outFd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // EOF or unreadable pipe
        // Any bytes count as liveness; corrupt bytes are caught by the
        // decoder below.
        deadline = hostSeconds() + timeout_sec;
        decoder.feed(buf, size_t(n));
        std::string frame;
        int rc;
        while ((rc = decoder.next(&frame)) == 1) {
            if (isHeartbeatFrame(frame))
                continue;
            auto res = parseWorkerResult(frame);
            if (!res.ok()) {
                protocol_error = res.error().message;
                break;
            }
            result = std::move(res).value();
        }
        if (rc == -1)
            protocol_error = decoder.error();
        if (!protocol_error.empty())
            break;
    }
    if (hung || !protocol_error.empty())
        ::kill(w.pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(w.pid, &wstatus, 0);
    ::close(w.outFd);

    if (hung)
        return simError(ErrorCategory::HeartbeatTimeout,
                        "worker heartbeat silent for more than ",
                        opts.heartbeatTimeoutMs, " ms; killed");
    if (!protocol_error.empty())
        return simError(ErrorCategory::Crashed,
                        "worker protocol error: ", protocol_error);
    if (result)
        return std::move(*result);
    if (WIFSIGNALED(wstatus))
        return simError(ErrorCategory::Crashed,
                        "worker killed by signal ", WTERMSIG(wstatus));
    const int code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
    if (code == kExecFailExit)
        return simError(ErrorCategory::ExecFail,
                        "worker binary could not be executed (exit 127 "
                        "without output)");
    if (code != 0)
        return simError(ErrorCategory::Crashed, "worker exited with code ",
                        code, " before sending a result");
    return simError(ErrorCategory::Crashed,
                    "worker closed its pipe without a result");
}

} // namespace

RunOutcome
superviseRun(const SimConfig &cfg, const std::string &name,
             uint64_t instrs, uint64_t warmup,
             const IsolationOptions &opts)
{
    const FaultPlan &plan =
        opts.plan ? *opts.plan : FaultPlan::global();
    const std::string bin =
        opts.workerBin.empty() ? "/proc/self/exe" : opts.workerBin;
    RunOutcome out;
    for (unsigned attempt = 1;; ++attempt) {
        auto r = runWorker(bin, cfg, name, instrs, warmup, attempt, opts,
                           plan);
        if (r.ok()) {
            out = std::move(r).value();
            if (attempt > 1 && out.ok()) {
                // Restarts promote Ok to Retried so campaign summaries
                // reflect the recovery; the SimResult payload itself
                // is untouched (bitwise identity).
                out.status = RunStatus::Retried;
                out.attempts = attempt;
            }
            break;
        }
        SimError err = r.error();
        warn("worker for '", name, "' (attempt ", attempt, "): ",
             err.message);
        // Crashes and exec failures may be transient (a bad page, a
        // racing binary update) and restart with backoff; heartbeat
        // timeouts never do — a hang that consumed the whole
        // wall-clock budget once will consume it again.
        const bool retryable = err.category == ErrorCategory::Crashed ||
                               err.category == ErrorCategory::ExecFail;
        if (retryable && attempt < opts.maxAttempts) {
            pauseBeforeRetry(opts.backoffMs, attempt);
            continue;
        }
        out.status = RunStatus::Crashed;
        out.attempts = attempt;
        out.failure = RunFailure{std::move(err), attempt};
        break;
    }
    out.workload = name;
    out.config = cfg.name;
    return out;
}

} // namespace catchsim
