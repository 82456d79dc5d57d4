#include "sim/experiment.hh"

#include <cctype>
#include <cstdio>
#include <map>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/parallel_runner.hh"
#include "sim/result_store.hh"
#include "trace/suite.hh"

namespace catchsim
{

ExperimentEnv
ExperimentEnv::fromEnvironment()
{
    ExperimentEnv env;
    env.names = envFlag("CATCH_FULL") ? stSuiteNames() : stQuickNames();
    env.instrs = envU64("CATCH_INSTR", 300000);
    env.warmup = envU64("CATCH_WARMUP", 100000);
    env.jobs = suiteJobs();
    env.jsonDir = envString("CATCH_JSON");
    env.resultStoreDir = envString("CATCH_RESULT_STORE");
    env.isolation = IsolationOptions::fromEnvironment();
    return env;
}

namespace
{

/**
 * <jsonDir>/<config-name>.json, with filesystem-hostile characters
 * flattened and a numeric suffix when a bench reuses a config name.
 * Bench mains are single-threaded, so a plain static map suffices.
 */
std::string
jsonExportPath(const std::string &dir, const std::string &cfg_name)
{
    std::string stem;
    for (char c : cfg_name)
        stem += (isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                 c == '.' || c == '_')
                    ? c
                    : '_';
    static std::map<std::string, int> uses;
    int n = ++uses[stem];
    // '-', not "-": GCC 12 -O3 misreports "-" + string as -Wrestrict.
    if (n > 1)
        stem += '-' + std::to_string(n);
    return dir + "/" + stem + ".json";
}

} // namespace

std::vector<RunOutcome>
runSuiteIsolated(const SimConfig &cfg, const ExperimentEnv &env)
{
    IsolationOptions opts = env.isolation;
    std::unique_ptr<ResultStore> store;
    if (!env.resultStoreDir.empty()) {
        auto s = ResultStore::open(env.resultStoreDir);
        if (s.ok()) {
            store = std::move(s).value();
            opts.resultStore = store.get();
        } else {
            warn("result store disabled: ", s.error().message);
        }
    }

    std::fprintf(stderr, "[%s] ", cfg.name.c_str());
    auto progress = [](const RunOutcome &o) {
        char mark = '.';
        if (o.fromStore)
            mark = 'h';
        else if (o.status == RunStatus::Retried)
            mark = 'r';
        else if (o.status == RunStatus::Failed)
            mark = 'F';
        else if (o.status == RunStatus::TimedOut)
            mark = 'T';
        else if (o.status == RunStatus::Crashed)
            mark = 'C';
        std::fprintf(stderr, "%c", mark);
        std::fflush(stderr);
    };
    auto outcomes = runWorkloadsIsolated(cfg, env.names, env.instrs,
                                         env.warmup, env.jobs, opts,
                                         progress);
    std::fprintf(stderr, "\n");

    CampaignSummary sum = summarizeOutcomes(outcomes);
    if (!sum.allOk() || sum.retried || sum.storeHits)
        inform("campaign '", cfg.name, "': ", sum.ok, " ok, ",
               sum.retried, " retried, ", sum.failed, " failed, ",
               sum.timedOut, " timed out, ", sum.crashed, " crashed, ",
               sum.storeHits, " store hit(s), ", sum.storeMisses,
               " store miss(es)");
    for (const auto &o : outcomes)
        if (!o.ok())
            warn("run '", o.workload, "' on '", o.config, "' ",
                 runStatusName(o.status), " after ", o.attempts,
                 " attempt(s) (",
                 errorCategoryName(o.failure->error.category), "): ",
                 o.failure->error.message);

    if (!env.jsonDir.empty()) {
        std::string path = jsonExportPath(env.jsonDir, cfg.name);
        auto written = writeSuiteJson(path, cfg, env, outcomes);
        if (!written.ok())
            warn("failed to write suite JSON to ", path, ": ",
                 written.error().message);
    }
    return outcomes;
}

std::vector<SimResult>
runSuite(const SimConfig &cfg, const ExperimentEnv &env)
{
    auto outcomes = runSuiteIsolated(cfg, env);
    std::vector<SimResult> results(outcomes.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].ok()) {
            results[i] = std::move(outcomes[i].result);
        } else {
            // runSuiteIsolated already warned with the full error.
            results[i].workload = outcomes[i].workload;
            results[i].config = outcomes[i].config;
        }
    }
    return results;
}

std::vector<std::pair<std::string, double>>
categoryGeomeans(const std::vector<SimResult> &base,
                 const std::vector<SimResult> &test)
{
    CATCHSIM_ASSERT(base.size() == test.size(),
                    "mismatched suites in categoryGeomeans");
    std::map<Category, std::vector<double>> buckets;
    std::vector<double> all;
    for (size_t i = 0; i < base.size(); ++i) {
        CATCHSIM_ASSERT(base[i].workload == test[i].workload,
                        "suite ordering mismatch");
        double speedup = test[i].ipc / base[i].ipc;
        buckets[base[i].category].push_back(speedup);
        all.push_back(speedup);
    }
    std::vector<std::pair<std::string, double>> out;
    const Category order[] = {Category::Client, Category::Fspec,
                              Category::Hpc, Category::Ispec,
                              Category::Server};
    for (Category c : order)
        if (buckets.contains(c))
            out.emplace_back(categoryName(c), geomean(buckets[c]));
    out.emplace_back("GeoMean", geomean(all));
    return out;
}

double
overallGeomean(const std::vector<SimResult> &base,
               const std::vector<SimResult> &test)
{
    auto rows = categoryGeomeans(base, test);
    return rows.back().second;
}

} // namespace catchsim
