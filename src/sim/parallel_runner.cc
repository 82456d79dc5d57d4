#include "sim/parallel_runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <thread>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sim/result_store.hh"
#include "sim/worker_proto.hh"

namespace catchsim
{

unsigned
suiteJobs()
{
    if (const char *env = envRaw("CATCH_JOBS")) {
        long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
        warn("CATCH_JOBS='", env, "' is not a positive integer; ",
             "falling back to hardware concurrency");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
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
    IsolationOptions o;
    o.budget = RunBudget::fromEnvironment();
    o.maxAttempts = static_cast<unsigned>(
        std::max<uint64_t>(1, envU64("CATCH_MAX_ATTEMPTS", 3)));
    o.backoffMs =
        static_cast<unsigned>(envU64("CATCH_BACKOFF_MS", 100));
    o.profile = envU64("CATCH_PROFILE", 0) != 0;
    o.heartbeatMs = static_cast<unsigned>(
        std::max<uint64_t>(1, envU64("CATCH_HEARTBEAT_MS", 1000)));
    o.heartbeatTimeoutMs = static_cast<unsigned>(
        std::max<uint64_t>(1, envU64("CATCH_HEARTBEAT_TIMEOUT_MS",
                                     30000)));
    o.workerBin = envString("CATCH_WORKER_BIN");
    return o;
}

double
workloadCostEstimate(const std::string &name)
{
    // Trace setup cost scales with the kernel's memory footprint and
    // simulation cost with its miss rate; both correlate with category.
    // Server OLTP/Java kernels build tens-of-MB working sets, HPC and
    // FSPEC stream through multi-MB arrays, ISPEC/client stay small.
    auto wl = findWorkload(name);
    if (!wl.ok())
        return 1.0; // unknown names fail fast in their own slot
    switch (wl.value()->category()) {
      case Category::Server: return 8.0;
      case Category::Hpc: return 3.0;
      case Category::Fspec: return 2.0;
      case Category::Client: return 1.5;
      default: return 1.0;
    }
}

void
runTasksLongestFirst(std::vector<std::function<void()>> tasks,
                     const std::vector<double> &cost, unsigned jobs)
{
    CATCHSIM_ASSERT(cost.size() == tasks.size(),
                    "cost/task vector size mismatch");
    if (jobs <= 1 || tasks.size() <= 1) {
        for (auto &t : tasks)
            t();
        return;
    }
    std::vector<size_t> order(tasks.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&cost](size_t a, size_t b) {
                         return cost[a] > cost[b];
                     });
    std::vector<std::function<void()>> sorted;
    sorted.reserve(tasks.size());
    for (size_t i : order)
        sorted.push_back(std::move(tasks[i]));
    ThreadPool pool(std::min<size_t>(jobs, sorted.size()));
    pool.runAll(std::move(sorted));
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
                if (opts.backoffMs) {
                    // Pacing only: the delay is a pure function of the
                    // attempt index and no clock value is ever read or
                    // recorded, so results stay bitwise-deterministic.
                    std::this_thread::sleep_for(std::chrono::milliseconds(
                        uint64_t(opts.backoffMs) * attempt));
                }
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

} // namespace

std::vector<size_t>
replayFinishedRuns(const SimConfig &cfg,
                   const std::vector<std::string> &names, uint64_t instrs,
                   uint64_t warmup, const IsolationOptions &opts,
                   std::vector<RunOutcome> &outcomes,
                   const std::function<void(const RunOutcome &)> &progress)
{
    std::vector<size_t> pending;
    for (size_t i = 0; i < names.size(); ++i) {
        auto key = opts.resultStore
                       ? resultKey(cfg, names[i], instrs, warmup)
                       : std::nullopt;
        auto hit = key ? opts.resultStore->find(*key) : std::nullopt;
        if (!hit) {
            pending.push_back(i);
            continue;
        }
        // The stored cell may come from a campaign under another name
        // (the key hashes content, not the label): relabel it exactly
        // as a fresh run under this config would be.
        outcomes[i] = std::move(*hit);
        outcomes[i].config = cfg.name;
        outcomes[i].result.config = cfg.name;
        if (progress)
            progress(outcomes[i]);
    }
    return pending;
}

void
recordFreshRun(const SimConfig &cfg, uint64_t instrs, uint64_t warmup,
               const IsolationOptions &opts, RunOutcome &out)
{
    if (!opts.resultStore)
        return;
    out.storeMiss = true;
    if (out.ok())
        if (auto key = resultKey(cfg, out.workload, instrs, warmup))
            opts.resultStore->put(*key, out);
}

std::vector<RunOutcome>
runWorkloadsIsolated(const SimConfig &cfg,
                     const std::vector<std::string> &names,
                     uint64_t instrs, uint64_t warmup, unsigned jobs,
                     const IsolationOptions &opts,
                     const std::function<void(const RunOutcome &)>
                         &progress)
{
    std::vector<RunOutcome> outcomes(names.size());
    std::vector<std::function<void()>> tasks;
    std::vector<double> cost;
    tasks.reserve(names.size());
    cost.reserve(names.size());
    // Resolve the store once on the calling thread: ChunkStore::global()
    // reads the environment on first use, which must not happen
    // concurrently from workers (env.hh startup contract).
    ChunkStore *store = opts.store ? *opts.store : ChunkStore::global();
    WarmStateStore *warm_store =
        opts.warmStore ? *opts.warmStore : WarmStateStore::global();
    for (size_t i : replayFinishedRuns(cfg, names, instrs, warmup, opts,
                                       outcomes, progress)) {
        tasks.push_back([&, i, store, warm_store] {
            // Fully private run: own workload (re-seeded from its suite
            // entry), own Simulator, own outcome slot. The stores (when
            // present) are shared deliberately — chunks and snapshots
            // are immutable and content-addressed, so sharing cannot
            // couple runs.
            outcomes[i] = executeContainedRun(cfg, names[i], instrs,
                                              warmup, opts, store,
                                              warm_store);
            recordFreshRun(cfg, instrs, warmup, opts, outcomes[i]);
            if (progress)
                progress(outcomes[i]);
        });
        cost.push_back(workloadCostEstimate(names[i]));
    }
    runTasksLongestFirst(std::move(tasks), cost, jobs);
    return outcomes;
}

std::vector<SimResult>
runWorkloadsParallel(const SimConfig &cfg,
                     const std::vector<std::string> &names,
                     uint64_t instrs, uint64_t warmup, unsigned jobs,
                     const std::function<void(const SimResult &)> &progress)
{
    std::function<void(const RunOutcome &)> cb;
    if (progress)
        cb = [&progress](const RunOutcome &o) { progress(o.result); };
    auto outcomes = runWorkloadsIsolated(cfg, names, instrs, warmup,
                                         jobs, IsolationOptions{}, cb);
    std::vector<SimResult> results(outcomes.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].ok()) {
            results[i] = std::move(outcomes[i].result);
        } else {
            warn("run '", names[i], "' on '", cfg.name, "' ",
                 runStatusName(outcomes[i].status), " (",
                 errorCategoryName(outcomes[i].failure->error.category),
                 "): ", outcomes[i].failure->error.message);
            results[i].workload = names[i];
            results[i].config = cfg.name;
        }
    }
    return results;
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
    auto results =
        runWorkloadsParallel(solo_cfg, names, instrs, warmup, jobs);
    std::map<std::string, double> solo;
    for (size_t i = 0; i < names.size(); ++i)
        solo[names[i]] = results[i].ipc;
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
    runTasksLongestFirst(std::move(tasks), cost, jobs);
    return results;
}

} // namespace catchsim
