#include "sim/supervisor.hh"

#include <algorithm>
#include <csignal>

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

/**
 * Ignores SIGPIPE for the supervisor's lifetime and restores the old
 * disposition on exit: a worker that dies before reading its request
 * must surface as a write error / EOF classification, not kill the
 * campaign. Scoped save/restore — no global signal state leaks out.
 */
class SigpipeGuard
{
  public:
    SigpipeGuard()
    {
        struct sigaction ignore = {};
        ignore.sa_handler = SIG_IGN;
        sigaction(SIGPIPE, &ignore, &saved_);
    }

    ~SigpipeGuard() { sigaction(SIGPIPE, &saved_, nullptr); }

    SigpipeGuard(const SigpipeGuard &) = delete;
    SigpipeGuard &operator=(const SigpipeGuard &) = delete;

  private:
    struct sigaction saved_ = {};
};

/** One live worker process and its stream-reassembly state. */
struct WorkerProc
{
    pid_t pid = -1;
    int outFd = -1; ///< read end of the worker's stdout
    size_t runIndex = 0;
    unsigned processAttempt = 1;
    double deadline = 0; ///< hostSeconds() past which the worker hangs
    bool killedForTimeout = false;
    bool gotResult = false;
    std::string protocolError; ///< non-empty: stream was corrupt
    RunOutcome result;         ///< valid iff gotResult
    FrameDecoder decoder;
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
    ::fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);

    WorkerProc w;
    w.pid = pid;
    w.outFd = out_pipe[0];
    w.processAttempt = attempt;
    w.deadline = hostSeconds() + opts.heartbeatTimeoutMs / 1000.0;
    return w;
}

} // namespace

std::vector<RunOutcome>
runWorkloadsSupervised(const SimConfig &cfg,
                       const std::vector<std::string> &names,
                       uint64_t instrs, uint64_t warmup, unsigned jobs,
                       const IsolationOptions &opts,
                       const std::function<void(const RunOutcome &)>
                           &progress)
{
    std::vector<RunOutcome> outcomes(names.size());
    const FaultPlan &plan =
        opts.plan ? *opts.plan : FaultPlan::global();
    const std::string bin =
        opts.workerBin.empty() ? "/proc/self/exe" : opts.workerBin;
    const double timeout_sec = opts.heartbeatTimeoutMs / 1000.0;
    SigpipeGuard sigpipe;

    // --- planning pre-pass, on the calling thread -------------------
    // Identical semantics to runWorkloadsIsolated: cells the
    // content-hashed store holds replay; only the rest spawn workers.
    std::vector<size_t> pending = replayFinishedRuns(
        cfg, names, instrs, warmup, opts, outcomes, progress);
    // LPT dispatch in the thread executor's order: each free slot
    // spawns the costliest run not yet started.
    std::vector<double> cost;
    cost.reserve(pending.size());
    for (size_t idx : pending)
        cost.push_back(workloadCostEstimate(names[idx]));
    const std::vector<size_t> order = longestFirstOrder(cost);
    size_t next = 0;

    auto commit = [&](size_t idx, RunOutcome &&out) {
        out.workload = names[idx];
        out.config = cfg.name;
        recordFreshRun(cfg, instrs, warmup, opts, out);
        outcomes[idx] = std::move(out);
        if (progress)
            progress(outcomes[idx]);
    };

    std::vector<WorkerProc> active;
    const size_t slots = std::max(1u, jobs);

    // Spawns names[idx] (attempt @p attempt), absorbing supervisor-side
    // infrastructure failures into the same bounded-restart policy the
    // EOF classifier applies.
    auto launch = [&](size_t idx, unsigned attempt) {
        for (;;) {
            auto w = spawnWorker(bin, cfg, names[idx], instrs, warmup,
                                 attempt, opts, plan);
            if (w.ok()) {
                w.value().runIndex = idx;
                active.push_back(std::move(w).value());
                return;
            }
            warn("worker spawn for '", names[idx], "' failed: ",
                 w.error().message);
            if (attempt < opts.maxAttempts) {
                pauseBeforeRetry(opts.backoffMs, attempt);
                ++attempt;
                continue;
            }
            RunOutcome out;
            out.status = RunStatus::Crashed;
            out.attempts = attempt;
            out.failure = RunFailure{w.error(), attempt};
            commit(idx, std::move(out));
            return;
        }
    };

    // Restart-or-commit for a worker that died without a usable
    // result. Crashes and exec failures may be transient (a bad page,
    // a racing binary update) and restart with backoff; heartbeat
    // timeouts never do — a hang that consumed the whole wall-clock
    // budget once will consume it again.
    auto failOrRetry = [&](size_t idx, unsigned attempt,
                           SimError err) {
        warn("worker for '", names[idx], "' (attempt ", attempt, "): ",
             err.message);
        bool retryable = err.category == ErrorCategory::Crashed ||
                         err.category == ErrorCategory::ExecFail;
        if (retryable && attempt < opts.maxAttempts) {
            pauseBeforeRetry(opts.backoffMs, attempt);
            launch(idx, attempt + 1);
            return;
        }
        RunOutcome out;
        out.status = RunStatus::Crashed;
        out.attempts = attempt;
        out.failure = RunFailure{std::move(err), attempt};
        commit(idx, std::move(out));
    };

    // --- poll event loop --------------------------------------------
    while (next < order.size() || !active.empty()) {
        while (active.size() < slots && next < order.size())
            launch(pending[order[next++]], 1);
        if (active.empty())
            continue; // every launch may have committed a failure

        std::vector<pollfd> fds(active.size());
        double next_deadline = active[0].deadline;
        for (size_t i = 0; i < active.size(); ++i) {
            fds[i] = pollfd{active[i].outFd, POLLIN, 0};
            next_deadline = std::min(next_deadline, active[i].deadline);
        }
        double wait_sec = next_deadline - hostSeconds();
        int timeout_ms = static_cast<int>(
            std::clamp(wait_sec * 1000.0, 10.0, 1000.0));
        ::poll(fds.data(), fds.size(), timeout_ms);

        const double now = hostSeconds();
        std::vector<char> finished(active.size(), 0);
        for (size_t i = 0; i < active.size(); ++i) {
            WorkerProc &w = active[i];
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                char buf[4096];
                for (;;) {
                    ssize_t n = ::read(w.outFd, buf, sizeof(buf));
                    if (n > 0) {
                        // Any bytes count as liveness; corrupt bytes
                        // are caught by the decoder below.
                        w.deadline = now + timeout_sec;
                        w.decoder.feed(buf, size_t(n));
                        continue;
                    }
                    if (n < 0 && errno == EINTR)
                        continue;
                    if (n < 0 &&
                        (errno == EAGAIN || errno == EWOULDBLOCK))
                        break;
                    finished[i] = 1; // EOF or unreadable pipe
                    break;
                }
                if (w.protocolError.empty()) {
                    std::string frame;
                    int rc;
                    while ((rc = w.decoder.next(&frame)) == 1) {
                        if (isHeartbeatFrame(frame))
                            continue;
                        auto res = parseWorkerResult(frame);
                        if (res.ok()) {
                            w.gotResult = true;
                            w.result = std::move(res).value();
                        } else {
                            w.protocolError = res.error().message;
                            ::kill(w.pid, SIGKILL);
                            break;
                        }
                    }
                    if (rc == -1 && w.protocolError.empty()) {
                        w.protocolError = w.decoder.error();
                        ::kill(w.pid, SIGKILL);
                    }
                }
            }
            if (!finished[i] && !w.killedForTimeout &&
                now > w.deadline) {
                // Watchdog: silence past the budget. SIGKILL; the EOF
                // this forces classifies the slot as heartbeat-timeout.
                w.killedForTimeout = true;
                ::kill(w.pid, SIGKILL);
            }
        }

        // Reap finished workers (reverse order keeps indices stable),
        // then classify outside the scan so launch() may grow active.
        std::vector<WorkerProc> done;
        for (size_t i = active.size(); i-- > 0;) {
            if (!finished[i])
                continue;
            done.push_back(std::move(active[i]));
            active.erase(active.begin() +
                         static_cast<ptrdiff_t>(i));
        }
        for (WorkerProc &w : done) {
            int wstatus = 0;
            ::waitpid(w.pid, &wstatus, 0);
            ::close(w.outFd);
            const size_t idx = w.runIndex;
            const unsigned attempt = w.processAttempt;
            if (w.killedForTimeout) {
                RunOutcome out;
                out.status = RunStatus::Crashed;
                out.attempts = attempt;
                out.failure = RunFailure{
                    simError(ErrorCategory::HeartbeatTimeout,
                             "worker heartbeat silent for more than ",
                             opts.heartbeatTimeoutMs, " ms; killed"),
                    attempt};
                commit(idx, std::move(out));
            } else if (!w.protocolError.empty()) {
                failOrRetry(idx, attempt,
                            simError(ErrorCategory::Crashed,
                                     "worker protocol error: ",
                                     w.protocolError));
            } else if (w.gotResult) {
                RunOutcome out = std::move(w.result);
                if (attempt > 1 && out.ok()) {
                    // Restarts promote Ok to Retried so campaign
                    // summaries reflect the recovery; the SimResult
                    // payload itself is untouched (bitwise identity).
                    out.status = RunStatus::Retried;
                    out.attempts = attempt;
                }
                commit(idx, std::move(out));
            } else if (WIFSIGNALED(wstatus)) {
                failOrRetry(idx, attempt,
                            simError(ErrorCategory::Crashed,
                                     "worker killed by signal ",
                                     WTERMSIG(wstatus)));
            } else {
                int code =
                    WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
                if (code == kExecFailExit) {
                    failOrRetry(idx, attempt,
                                simError(ErrorCategory::ExecFail,
                                         "worker binary could not be "
                                         "executed (exit 127 without "
                                         "output)"));
                } else if (code == 0) {
                    failOrRetry(idx, attempt,
                                simError(ErrorCategory::Crashed,
                                         "worker closed its pipe "
                                         "without a result"));
                } else {
                    failOrRetry(idx, attempt,
                                simError(ErrorCategory::Crashed,
                                         "worker exited with code ",
                                         code,
                                         " before sending a result"));
                }
            }
        }
    }
    return outcomes;
}

} // namespace catchsim
