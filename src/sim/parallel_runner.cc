#include "sim/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_map>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/env.hh"
#include "common/logging.hh"
#include "sim/result_store.hh"
#include "sim/supervisor.hh"
#include "sim/worker_proto.hh"

namespace catchsim
{

unsigned
suiteJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    hw = hw ? hw : 1;
    uint64_t jobs = envU64("CATCH_JOBS", hw);
    if (jobs >= 1)
        return static_cast<unsigned>(
            std::min<uint64_t>(jobs, std::numeric_limits<unsigned>::max()));
    warn("CATCH_JOBS=0 is not a positive integer; ",
         "falling back to hardware concurrency");
    return hw;
}

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Ok: return "ok";
      case RunStatus::Retried: return "retried";
      case RunStatus::Failed: return "failed";
      case RunStatus::TimedOut: return "timed-out";
      case RunStatus::Crashed: return "crashed";
    }
    return "?";
}

std::optional<RunStatus>
runStatusFromName(const std::string &name)
{
    for (RunStatus s : {RunStatus::Ok, RunStatus::Retried,
                        RunStatus::Failed, RunStatus::TimedOut,
                        RunStatus::Crashed})
        if (name == runStatusName(s))
            return s;
    return std::nullopt;
}

CampaignSummary
summarizeOutcomes(const std::vector<RunOutcome> &outcomes)
{
    CampaignSummary sum;
    for (const auto &o : outcomes) {
        switch (o.status) {
          case RunStatus::Ok: ++sum.ok; break;
          case RunStatus::Retried: ++sum.retried; break;
          case RunStatus::Failed: ++sum.failed; break;
          case RunStatus::TimedOut: ++sum.timedOut; break;
          case RunStatus::Crashed: ++sum.crashed; break;
        }
        if (o.fromStore)
            ++sum.storeHits;
        if (o.storeMiss)
            ++sum.storeMisses;
    }
    return sum;
}

IsolationOptions
IsolationOptions::fromEnvironment()
{
    // A value past the unsigned range saturates rather than wrapping
    // (2^32 would wrap to 0: one attempt, no heartbeat grace).
    auto knob = [](const char *name, uint64_t fallback, uint64_t floor) {
        return static_cast<unsigned>(
            std::clamp<uint64_t>(envU64(name, fallback), floor,
                                 std::numeric_limits<unsigned>::max()));
    };
    IsolationOptions o;
    o.budget = RunBudget::fromEnvironment();
    o.maxAttempts = knob("CATCH_MAX_ATTEMPTS", 3, 1);
    o.backoffMs = knob("CATCH_BACKOFF_MS", 100, 0);
    o.profile = envU64("CATCH_PROFILE", 0) != 0;
    o.heartbeatTimeoutMs = knob("CATCH_HEARTBEAT_TIMEOUT_MS", 30000, 1);
    return o;
}

double
workloadCostEstimate(const std::string &name)
{
    // Serial host ms of one baselineSkx cell at 300k + 100k instrs with
    // its kernel image resident (median of 5, mean of two sweeps on a
    // 4-vCPU container). Set-up is left out: a process builds each
    // image once, so the simulation is the cost that repeats. What
    // ranks a kernel is its miss traffic, not its category or
    // footprint: gathers, CSR and chases run longest, the
    // cache-resident compute and window kernels shortest.
    static const std::unordered_map<std::string, double> kHostMs = {
        {"gemsfdtd", 118}, {"hpc.gather", 108}, {"sysmark-excel-2", 94},
        {"hadoop", 93}, {"mcf", 92}, {"gemsfdtd-2", 92}, {"hpc.spmv-2", 90},
        {"bioinformatics", 86}, {"sysmark-excel", 82}, {"libquantum", 81},
        {"soplex", 80}, {"soplex-2", 79}, {"hpc.spmv", 79}, {"mcf-2", 76},
        {"astar", 70}, {"astar-2", 69}, {"omnetpp-2", 65}, {"specjbb-2", 63},
        {"browser", 62}, {"xalancbmk", 61}, {"milc", 59}, {"hmmer", 59},
        {"tpce", 58}, {"hmmer-2", 58}, {"omnetpp", 56}, {"milc-2", 55},
        {"specjenterprise", 54}, {"wrf", 53}, {"tpcc-2", 53}, {"tonto", 53},
        {"specjbb", 53}, {"sphinx3-2", 52}, {"lbm", 51}, {"gobmk-2", 51},
        {"xalancbmk-2", 49}, {"calculix", 49}, {"cactusADM", 48},
        {"hpc.stream", 46}, {"sjeng", 45}, {"leslie3d", 45},
        {"hplinpack", 45}, {"gamess", 45}, {"gcc-2", 44}, {"bwaves-2", 44},
        {"gcc", 43}, {"dealII", 43}, {"sphinx3", 42}, {"hplinpack-2", 42},
        {"oracle", 40}, {"hpc.stencil3d", 40}, {"zeusmp", 39},
        {"povray-2", 39}, {"hpc.fft", 39}, {"gobmk", 39}, {"povray", 38},
        {"bzip2", 37}, {"bwaves", 37}, {"tpcc", 34}, {"gromacs", 33},
        {"specpower", 32}, {"namd-2", 32}, {"perlbench", 31}, {"namd", 31},
        {"bzip2-2", 31}, {"h264ref-2", 28}, {"h264enc", 28},
        {"facedetection", 28}, {"blackscholes", 28}, {"h264ref", 27},
        {"perlbench-2", 25},
    };
    auto it = kHostMs.find(name);
    // Names outside the suite fail fast in their own slot.
    return it != kHostMs.end() ? it->second : 1.0;
}

std::vector<size_t>
longestFirstOrder(const std::vector<double> &cost)
{
    std::vector<size_t> order(cost.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&cost](size_t a, size_t b) {
                         return cost[a] > cost[b];
                     });
    return order;
}

void
pauseBeforeRetry(unsigned backoff_ms, unsigned attempt)
{
    if (backoff_ms)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(uint64_t(backoff_ms) * attempt));
}

namespace
{

/**
 * Moves the calling worker onto the (@p self mod n)-th CPU it may run
 * on, then restores its full affinity mask. The thread stays where it
 * landed unless the scheduler later chooses to move it; nothing stays
 * pinned. Some schedulers neither spread newly created threads nor
 * rebalance them soon: on a 4-vCPU VM, four fresh workers shared one
 * CPU for whole 300 ms batches, and 4-job suites ran slower than
 * serial ones. A no-op off Linux or on one CPU.
 */
void
placeWorker(size_t self)
{
#if defined(__linux__)
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return;
    const int n = CPU_COUNT(&allowed);
    if (n < 2)
        return;
    size_t skip = self % static_cast<size_t>(n);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed) || skip-- != 0)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
        break;
    }
    sched_setaffinity(0, sizeof(allowed), &allowed);
#else
    (void)self;
#endif
}

} // namespace

void
runTasksLongestFirst(const std::vector<std::function<void()>> &tasks,
                     const std::vector<double> &cost, unsigned jobs)
{
    CATCHSIM_ASSERT(cost.size() == tasks.size(),
                    "cost/task vector size mismatch");
    if (jobs <= 1 || tasks.size() <= 1) {
        for (const auto &t : tasks)
            t();
        return;
    }
    // Determinism rests on each task writing only its own slot, not on
    // which worker runs it or when.
    const std::vector<size_t> order = longestFirstOrder(cost);
    std::atomic<size_t> next{0};
    auto work = [&](size_t self) {
        placeWorker(self);
        for (size_t k = next++; k < order.size(); k = next++)
            tasks[order[k]]();
    };
    const size_t workers = std::min<size_t>(jobs, tasks.size());
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w)
        threads.emplace_back(work, w);
    work(0);
    for (auto &t : threads)
        t.join();
}

RunOutcome
executeContainedRun(const SimConfig &cfg, const std::string &name,
                    uint64_t instrs, uint64_t warmup,
                    const IsolationOptions &opts, ChunkStore *store,
                    WarmStateStore *warm_store)
{
    RunOutcome out;
    out.workload = name;
    out.config = cfg.name;
    const FaultPlan &plan =
        opts.plan ? *opts.plan : FaultPlan::global();

    unsigned attempt = 1;
    for (;;) {
        try {
            RunProfile prof;
            auto r = runWorkloadGuarded(cfg, name, instrs, warmup,
                                        opts.budget, plan, attempt,
                                        opts.profile ? &prof : nullptr,
                                        store, warm_store);
            if (r.ok()) {
                out.result = std::move(r).value();
                out.status =
                    attempt > 1 ? RunStatus::Retried : RunStatus::Ok;
                out.attempts = attempt;
                if (opts.profile)
                    out.profile = prof;
                return out;
            }
            SimError err = r.error();
            if (err.transient() && attempt < opts.maxAttempts) {
                pauseBeforeRetry(opts.backoffMs, attempt);
                ++attempt;
                continue;
            }
            out.status = err.category == ErrorCategory::BudgetExceeded
                             ? RunStatus::TimedOut
                             : RunStatus::Failed;
            out.attempts = attempt;
            out.failure = RunFailure{std::move(err), attempt};
            return out;
        } catch (const std::exception &e) {
            out.status = RunStatus::Failed;
            out.attempts = attempt;
            out.failure =
                RunFailure{simError(ErrorCategory::Internal,
                                    "worker exception: ", e.what()),
                           attempt};
            return out;
        } catch (...) {
            out.status = RunStatus::Failed;
            out.attempts = attempt;
            out.failure =
                RunFailure{simError(ErrorCategory::Internal,
                                    "unknown worker exception"),
                           attempt};
            return out;
        }
    }
}

namespace
{

/** The result-store key of one slot; none for names outside the suite
 *  (they fail fast in their slot and nothing cacheable comes of them). */
std::optional<RunKey>
resultKey(const SimConfig &cfg, const std::string &name, uint64_t instrs,
          uint64_t warmup)
{
    auto wl = findWorkload(name);
    if (!wl.ok())
        return std::nullopt;
    return RunKey{name, wl.value()->seed(), configDigest(cfg), instrs,
                  warmup};
}

/**
 * Ignores SIGPIPE for a supervised campaign's lifetime and restores the
 * old disposition on exit: a worker that dies before reading its
 * request must surface as a write error / EOF classification, not kill
 * the campaign. One guard spans every slot thread, since the
 * disposition is process-wide; no global signal state leaks out.
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

/**
 * The campaign body both executors share. Slots opts.resultStore
 * holds replay on the calling thread, relabelled under this config
 * and reported through @p progress; runTasksLongestFirst then runs
 * @p run for every other slot, whose outcome is booked (store miss,
 * persisted success) and reported on the thread that ran it.
 */
std::vector<RunOutcome>
runSlots(const SimConfig &cfg, const std::vector<std::string> &names,
         uint64_t instrs, uint64_t warmup, unsigned jobs,
         const IsolationOptions &opts,
         const std::function<void(const RunOutcome &)> &progress,
         const std::function<RunOutcome(const std::string &)> &run)
{
    std::vector<RunOutcome> outcomes(names.size());
    std::vector<std::function<void()>> tasks;
    std::vector<double> cost;
    for (size_t i = 0; i < names.size(); ++i) {
        auto key = opts.resultStore
                       ? resultKey(cfg, names[i], instrs, warmup)
                       : std::nullopt;
        if (auto hit = key ? opts.resultStore->find(*key) : std::nullopt) {
            // The stored cell may come from a campaign under another
            // name (the key hashes content, not the label): relabel it
            // exactly as a fresh run under this config would be.
            outcomes[i] = std::move(*hit);
            outcomes[i].config = cfg.name;
            outcomes[i].result.config = cfg.name;
            if (progress)
                progress(outcomes[i]);
            continue;
        }
        // Each task writes only its own slot: determinism rests on
        // that, not on which thread runs it or when.
        tasks.push_back([&, i, key] {
            RunOutcome &out = outcomes[i];
            out = run(names[i]);
            if (opts.resultStore) {
                out.storeMiss = true;
                if (out.ok() && key)
                    opts.resultStore->put(*key, out);
            }
            if (progress)
                progress(out);
        });
        cost.push_back(workloadCostEstimate(names[i]));
    }
    runTasksLongestFirst(tasks, cost, jobs);
    return outcomes;
}

} // namespace

std::vector<RunOutcome>
runWorkloadsIsolated(const SimConfig &cfg,
                     const std::vector<std::string> &names,
                     uint64_t instrs, uint64_t warmup, unsigned jobs,
                     const IsolationOptions &opts,
                     const std::function<void(const RunOutcome &)>
                         &progress)
{
    // Resolve the store once on the calling thread: ChunkStore::global()
    // reads the environment on first use, which must not happen
    // concurrently from workers (env.hh startup contract). The stores
    // (when present) are shared deliberately — chunks and snapshots are
    // immutable and content-addressed, so sharing cannot couple runs.
    ChunkStore *store = opts.store ? *opts.store : ChunkStore::global();
    WarmStateStore *warm_store =
        opts.warmStore ? *opts.warmStore : WarmStateStore::global();
    return runSlots(cfg, names, instrs, warmup, jobs, opts, progress,
                    [&](const std::string &name) {
                        return executeContainedRun(cfg, name, instrs,
                                                   warmup, opts, store,
                                                   warm_store);
                    });
}

std::vector<RunOutcome>
runWorkloadsSupervised(const SimConfig &cfg,
                       const std::vector<std::string> &names,
                       uint64_t instrs, uint64_t warmup, unsigned jobs,
                       const IsolationOptions &opts,
                       const std::function<void(const RunOutcome &)>
                           &progress)
{
    SigpipeGuard sigpipe;
    return runSlots(cfg, names, instrs, warmup, jobs, opts, progress,
                    [&](const std::string &name) {
                        return superviseRun(cfg, name, instrs, warmup,
                                            opts);
                    });
}

std::map<std::string, double>
soloIpcsParallel(const SimConfig &cfg, const std::vector<MpMix> &mixes,
                 uint64_t instrs, uint64_t warmup, unsigned jobs)
{
    std::set<std::string> distinct;
    for (const auto &mix : mixes)
        for (const auto &w : mix.workloads)
            distinct.insert(w);
    std::vector<std::string> names(distinct.begin(), distinct.end());
    // Solo baselines feed weighted-speedup against detailed MP runs, so
    // they must run detailed themselves even under a sampled config.
    SimConfig solo_cfg = cfg;
    solo_cfg.sampling = SamplingConfig();
    auto outcomes =
        runWorkloadsIsolated(solo_cfg, names, instrs, warmup, jobs);
    std::map<std::string, double> solo;
    for (size_t i = 0; i < names.size(); ++i) {
        const RunOutcome &o = outcomes[i];
        if (!o.ok())
            warn("run '", names[i], "' on '", solo_cfg.name, "' ",
                 runStatusName(o.status), " (",
                 errorCategoryName(o.failure->error.category),
                 "): ", o.failure->error.message);
        solo[names[i]] = o.ok() ? o.result.ipc : 0.0;
    }
    return solo;
}

std::vector<MpResult>
runMixesParallel(const SimConfig &cfg, const std::vector<MpMix> &mixes,
                 uint64_t instrs, uint64_t warmup,
                 const std::map<std::string, double> &solo, unsigned jobs)
{
    std::vector<MpResult> results(mixes.size());
    std::vector<std::function<void()>> tasks;
    std::vector<double> cost;
    tasks.reserve(mixes.size());
    cost.reserve(mixes.size());
    for (size_t i = 0; i < mixes.size(); ++i) {
        std::array<double, 4> alone{};
        double mix_cost = 0;
        for (int c = 0; c < 4; ++c) {
            auto it = solo.find(mixes[i].workloads[c]);
            CATCHSIM_ASSERT(it != solo.end(), "missing solo IPC for ",
                            mixes[i].workloads[c]);
            alone[c] = it->second;
            mix_cost += workloadCostEstimate(mixes[i].workloads[c]);
        }
        tasks.push_back([&, i, alone] {
            MpSimulator sim(cfg);
            results[i] = sim.run(mixes[i], instrs, warmup, alone);
        });
        cost.push_back(mix_cost);
    }
    runTasksLongestFirst(tasks, cost, jobs);
    return results;
}

} // namespace catchsim
