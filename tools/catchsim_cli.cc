/**
 * @file
 * catchsim command-line driver: run any suite workload on any named or
 * hand-tuned configuration and print a full report. This is the tool a
 * downstream user reaches for before writing code against the library.
 *
 * Usage:
 *   catchsim [options] <workload> [workload...]
 *
 * Options:
 *   --config=skx|client         base configuration (default skx)
 *   --no-l2=<llc_kb>            remove the L2, set the LLC size in KB
 *   --catch                     enable criticality detection + all TACT
 *   --criticality               enable only the detector
 *   --detector=heuristic        heuristic detection instead of the DDG
 *   --tact=cross,deep,feeder,code   enable specific TACT components
 *   --instr=<n>                 measured instructions   (default 300000)
 *   --warmup=<n>                warmup instructions     (default 100000)
 *   --sample                    sampled simulation: functional warming
 *                               with periodic detailed windows
 *   --sample-interval=<n>       instrs per sampling period (default
 *                               20000)
 *   --sample-window=<n>         measured instrs per window (default
 *                               2000)
 *   --sample-warmup=<n>         detailed-warmup instrs before each
 *                               window (default 2000)
 *   --llc-add=<cycles>          LLC latency adder
 *   --no-prefetchers            disable the baseline prefetchers
 *   --jobs=<n>                  parallel simulations (default CATCH_JOBS
 *                               or hardware concurrency; 1 = serial)
 *   --profile                   collect host phase timings (trace-gen,
 *                               warmup, measured) and peak RSS per run;
 *                               printed per report and exported as the
 *                               hostPerf object in --json documents.
 *                               Profiling never changes simulated
 *                               results. (Env: CATCH_PROFILE=1)
 *   --json=<file>               also write results as a JSON document
 *   --isolate                   run every simulation in its own worker
 *                               process under the wall-clock supervisor
 *                               (sim/supervisor.hh): a crash or hang in
 *                               one run becomes a typed failure in its
 *                               slot instead of killing the campaign.
 *                               The supervisor re-execs this binary in
 *                               its hidden --worker mode.
 *   --result-store=<dir>        incremental content-hashed result store
 *                               (sim/result_store.hh): runs whose
 *                               (workload, seed, config, lengths) key
 *                               is already stored are served from disk;
 *                               fresh successes persist back. A resweep
 *                               after a one-knob change re-executes
 *                               only invalidated cells, and a rerun of
 *                               a killed or failed campaign only the
 *                               runs that did not finish successfully.
 *   --store                     memoize trace chunks and warmed state
 *                               in memory for this campaign's
 *                               in-process runs; results stay bitwise-
 *                               identical (Env: CATCH_STORE=1)
 *   --list                      list all suite workloads and exit
 *
 * Option values are checked before anything runs: numbers must be plain
 * unsigned decimals in range (--instr, --jobs and --no-l2 at least 1,
 * --llc-add and --no-l2 below 2^32), --config takes skx or client, and
 * --tact a comma list drawn from cross, deep, feeder and code. A
 * malformed value exits 2 with the usage text.
 *
 * Reports print in command-line order regardless of --jobs; results are
 * bitwise-identical for any job count — including between in-process
 * and --isolate execution at any worker count. Runs that fail (corrupt
 * trace, worker exception, watchdog timeout, crashed worker process)
 * are contained to their own slot and reported structurally; the
 * campaign continues.
 *
 * Exit codes: 0 every run succeeded; 1 at least one run failed or
 * timed out (or the JSON export failed); 2 usage/configuration error
 * (unknown option, malformed option value, unknown workload, invalid
 * geometry, locked or unwritable result store) or at least one run
 * crashed at the process level (worker died, hung past the heartbeat
 * timeout, or failed to exec).
 */

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "sim/supervisor.hh"
#include "sim/worker_proto.hh"
#include "trace/suite.hh"

using namespace catchsim;

namespace
{

void
printReport(const SimResult &r)
{
    std::printf("\n=== %s on %s ===\n", r.workload.c_str(),
                r.config.c_str());
    std::printf("IPC                : %.3f  (%llu instrs, %llu cycles)\n",
                r.ipc, static_cast<unsigned long long>(r.core.instrs),
                static_cast<unsigned long long>(r.core.cycles));
    if (r.sampled) {
        std::printf("sampling           : %llu windows, %llu warmed "
                    "instrs, IPC sd %.3f [%.3f, %.3f]\n",
                    static_cast<unsigned long long>(r.sample.windows),
                    static_cast<unsigned long long>(
                        r.sample.warmedInstrs),
                    std::sqrt(r.sample.ipcVariance), r.sample.ipcMin,
                    r.sample.ipcMax);
    }
    std::printf("loads served       : L1 %.1f%%  L2 %.1f%%  LLC %.1f%%  "
                "Mem %.1f%%  (fwd %llu)\n",
                100 * r.hier.loadHitFraction(Level::L1),
                100 * r.hier.loadHitFraction(Level::L2),
                100 * r.hier.loadHitFraction(Level::LLC),
                100 * r.hier.loadHitFraction(Level::Mem),
                static_cast<unsigned long long>(r.core.forwardedLoads));
    std::printf("avg load latency   : %.1f cycles\n",
                r.hier.loads ? static_cast<double>(
                                   r.hier.totalLoadLatency) /
                                   r.hier.loads
                             : 0.0);
    std::printf("branches           : %.2f%% mispredicted\n",
                100 * r.core.branch.mispredictRate());
    std::printf("front-end          : %llu code-stall cycles\n",
                static_cast<unsigned long long>(
                    r.frontend.codeStallCycles));
    std::printf("DRAM               : %llu reads (avg %.0f cyc), "
                "%llu writes, %.0f%% row hits\n",
                static_cast<unsigned long long>(r.dram.reads),
                r.dram.avgReadLatency(),
                static_cast<unsigned long long>(r.dram.writes),
                100 * r.dram.rowHitRate());
    if (r.ddg.walks) {
        std::printf("criticality        : %llu walks, %llu critical "
                    "loads, %u active PCs\n",
                    static_cast<unsigned long long>(r.ddg.walks),
                    static_cast<unsigned long long>(
                        r.ddg.criticalLoadsFound),
                    r.activeCriticalPcs);
    }
    if (r.hier.tactPrefetches) {
        std::printf("TACT               : %llu prefetches (cross %llu, "
                    "deep %llu, feeder %llu, code-lines %llu)\n",
                    static_cast<unsigned long long>(
                        r.hier.tactPrefetches),
                    static_cast<unsigned long long>(r.tact.crossIssued),
                    static_cast<unsigned long long>(r.tact.deepIssued),
                    static_cast<unsigned long long>(r.tact.feederIssued),
                    static_cast<unsigned long long>(r.tact.codeLines));
        std::printf("TACT timeliness    : %.0f%% save >=80%% of LLC "
                    "latency\n",
                    100 * r.timelinessAtLeast80);
    }
    std::printf("energy             : %.3f mJ (core %.2f, cache %.2f, "
                "ring %.2f, DRAM %.2f, static %.2f)\n",
                r.energy.total(), r.energy.coreDynamic,
                r.energy.cacheDynamic, r.energy.interconnect,
                r.energy.dramDynamic, r.energy.staticLeakage);
}

void
printProfile(const RunProfile &p)
{
    std::printf("host perf          : trace-gen %.3fs, warmup %.3fs, "
                "measured %.3fs, peak RSS %.1f MB\n",
                p.traceGenSec, p.warmupSec, p.measuredSec,
                static_cast<double>(p.peakRssBytes) / (1024.0 * 1024.0));
}

void
printFailure(const RunOutcome &o)
{
    std::printf("\n=== %s on %s ===\n", o.workload.c_str(),
                o.config.c_str());
    std::printf("status             : %s after %u attempt(s)\n",
                runStatusName(o.status), o.attempts);
    std::printf("error              : [%s] %s\n",
                errorCategoryName(o.failure->error.category),
                o.failure->error.message.c_str());
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: catchsim [--config=skx|client] [--no-l2=KB] "
                 "[--catch] [--criticality]\n"
                 "                [--detector=heuristic]\n"
                 "                [--tact=cross,deep,feeder,code] "
                 "[--instr=N] [--warmup=N]\n"
                 "                [--sample] [--sample-interval=N] "
                 "[--sample-window=N] [--sample-warmup=N]\n"
                 "                [--llc-add=N] [--no-prefetchers] "
                 "[--jobs=N] [--profile] [--json=FILE]\n"
                 "                [--isolate] [--result-store=DIR] "
                 "[--store] [--list]\n"
                 "                <workload>...\n");
    std::exit(2);
}

[[noreturn]] void
badValue(const std::string &arg)
{
    std::fprintf(stderr, "catchsim: invalid value in %s\n", arg.c_str());
    usage();
}

/** The value of a --name=N option as a decimal in [lo, hi], with no
 *  sign, exponent or trailing characters; exits 2 otherwise. */
uint64_t
numberArg(const std::string &arg, uint64_t lo, uint64_t hi)
{
    std::string text = arg.substr(arg.find('=') + 1);
    const char *end = text.data() + text.size();
    uint64_t v = 0;
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi)
        badValue(arg);
    return v;
}

/** A comma list drawn from cross, deep, feeder and code. */
bool
parseTactList(const std::string &list, TactConfig &tact)
{
    tact.cross = tact.deepSelf = tact.feeder = tact.code = false;
    size_t begin = 0;
    while (true) {
        size_t comma = list.find(',', begin);
        std::string item = list.substr(begin, comma - begin);
        if (item == "cross")
            tact.cross = true;
        else if (item == "deep")
            tact.deepSelf = true;
        else if (item == "feeder")
            tact.feeder = true;
        else if (item == "code")
            tact.code = true;
        else
            return false;
        if (comma == std::string::npos)
            return true;
        begin = comma + 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Hidden worker mode: the process-isolation supervisor re-execs
    // this binary with --worker as its only argument and speaks the
    // frame protocol over stdin/stdout (sim/worker_proto.hh).
    if (argc > 1 && std::strcmp(argv[1], "--worker") == 0)
        return workerMain();

    SimConfig cfg = baselineSkx();
    bool client = false;
    uint64_t no_l2_kb = 0;
    uint64_t instrs = 300000, warmup = 100000;
    SamplingConfig sampling;
    unsigned jobs = suiteJobs();
    bool profile = false;
    std::string json_path;
    std::string store_dir;
    bool memo = false;
    bool isolate = false;
    std::vector<std::string> workloads;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg]() {
            return arg.substr(arg.find('=') + 1);
        };
        if (arg == "--list") {
            for (const auto &n : stSuiteNames())
                std::printf("%s\n", n.c_str());
            return 0;
        } else if (arg.rfind("--config=", 0) == 0) {
            if (value() != "skx" && value() != "client")
                badValue(arg);
            client = value() == "client";
        } else if (arg.rfind("--no-l2=", 0) == 0) {
            no_l2_kb = numberArg(arg, 1, UINT32_MAX);
        } else if (arg == "--catch") {
            cfg.enableCatch();
        } else if (arg == "--criticality") {
            cfg.criticality.enabled = true;
        } else if (arg == "--detector=heuristic") {
            cfg.criticality.kind = DetectorKind::Heuristic;
        } else if (arg.rfind("--tact=", 0) == 0) {
            if (!parseTactList(value(), cfg.tact))
                badValue(arg);
            cfg.criticality.enabled = true;
        } else if (arg.rfind("--instr=", 0) == 0) {
            instrs = numberArg(arg, 1, UINT64_MAX);
        } else if (arg.rfind("--warmup=", 0) == 0) {
            warmup = numberArg(arg, 0, UINT64_MAX);
        } else if (arg == "--sample") {
            sampling.mode = SampleMode::Sampled;
        } else if (arg.rfind("--sample-interval=", 0) == 0) {
            sampling.mode = SampleMode::Sampled;
            sampling.intervalInstrs = numberArg(arg, 0, UINT64_MAX);
        } else if (arg.rfind("--sample-window=", 0) == 0) {
            sampling.mode = SampleMode::Sampled;
            sampling.windowInstrs = numberArg(arg, 0, UINT64_MAX);
        } else if (arg.rfind("--sample-warmup=", 0) == 0) {
            sampling.mode = SampleMode::Sampled;
            sampling.warmupInstrs = numberArg(arg, 0, UINT64_MAX);
        } else if (arg.rfind("--llc-add=", 0) == 0) {
            cfg.oracle.latAddLlc =
                static_cast<uint32_t>(numberArg(arg, 0, UINT32_MAX));
        } else if (arg == "--no-prefetchers") {
            cfg.l1StridePrefetcher = false;
            cfg.l2StreamPrefetcher = false;
        } else if (arg.rfind("--jobs=", 0) == 0) {
            jobs = static_cast<unsigned>(numberArg(arg, 1, UINT32_MAX));
        } else if (arg == "--profile") {
            profile = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = value();
        } else if (arg == "--isolate") {
            isolate = true;
        } else if (arg.rfind("--result-store=", 0) == 0) {
            store_dir = value();
        } else if (arg == "--store") {
            memo = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
        } else {
            workloads.push_back(arg);
        }
    }
    if (workloads.empty())
        usage();

    // Assemble base + overlays in the right order.
    DetectorKind detector = cfg.criticality.kind;
    bool want_catch = cfg.criticality.enabled;
    TactConfig tact = cfg.tact;
    OracleConfig oracle = cfg.oracle;
    bool no_pf = !cfg.l1StridePrefetcher;
    cfg = client ? baselineClient() : baselineSkx();
    if (no_l2_kb > 0)
        cfg = noL2(cfg, no_l2_kb);
    cfg.criticality.enabled = want_catch;
    cfg.criticality.kind = detector;
    cfg.tact = tact;
    cfg.oracle = oracle;
    if (no_pf) {
        cfg.l1StridePrefetcher = false;
        cfg.l2StreamPrefetcher = false;
    }
    cfg.sampling = sampling;
    if (cfg.tact.any())
        cfg.name += "+tact";
    else if (cfg.criticality.enabled)
        cfg.name += "+crit";

    // Config mistakes are surfaced once, before any simulation starts:
    // unknown workload names (the error lists every valid name) and
    // invalid geometry both exit with code 2.
    bool names_ok = true;
    for (const auto &w : workloads) {
        auto wl = findWorkload(w);
        if (!wl.ok()) {
            std::fprintf(stderr, "catchsim: %s\n",
                         names_ok ? wl.error().message.c_str()
                                  : ("unknown workload '" + w + "'")
                                        .c_str());
            names_ok = false;
        }
    }
    if (!names_ok)
        return 2;
    if (auto valid = cfg.validate(); !valid.ok()) {
        std::fprintf(stderr, "catchsim: invalid configuration: %s\n",
                     valid.error().message.c_str());
        return 2;
    }

    IsolationOptions opts = IsolationOptions::fromEnvironment();
    opts.profile |= profile;
    std::unique_ptr<ResultStore> store;
    if (!store_dir.empty()) {
        auto s = ResultStore::open(store_dir);
        if (!s.ok()) {
            std::fprintf(stderr, "catchsim: %s\n",
                         s.error().message.c_str());
            return 2;
        }
        store = std::move(s).value();
        opts.resultStore = store.get();
    }
    ChunkStore chunks;
    WarmStateStore warm;
    if (memo) {
        opts.store = &chunks;
        opts.warmStore = &warm;
    }

    auto outcomes =
        isolate ? runWorkloadsSupervised(cfg, workloads, instrs, warmup,
                                         jobs, opts)
                : runWorkloadsIsolated(cfg, workloads, instrs, warmup,
                                       jobs, opts);
    for (const auto &o : outcomes) {
        if (o.ok()) {
            printReport(o.result);
            if (o.profile)
                printProfile(*o.profile);
        } else {
            printFailure(o);
        }
    }

    CampaignSummary sum = summarizeOutcomes(outcomes);
    if (sum.retried || sum.failed || sum.timedOut || sum.crashed ||
        sum.storeHits) {
        std::printf("\ncampaign: %llu ok, %llu retried, %llu failed, "
                    "%llu timed out, %llu crashed, "
                    "%llu store hit(s), %llu store miss(es)\n",
                    static_cast<unsigned long long>(sum.ok),
                    static_cast<unsigned long long>(sum.retried),
                    static_cast<unsigned long long>(sum.failed),
                    static_cast<unsigned long long>(sum.timedOut),
                    static_cast<unsigned long long>(sum.crashed),
                    static_cast<unsigned long long>(sum.storeHits),
                    static_cast<unsigned long long>(sum.storeMisses));
    }

    // Crashed workers mean the campaign lost process-level integrity:
    // distinguish that (2) from contained in-simulation failures (1).
    int rc = sum.crashed ? 2 : (sum.allOk() ? 0 : 1);
    if (!json_path.empty()) {
        ExperimentEnv env;
        env.names = workloads;
        env.instrs = instrs;
        env.warmup = warmup;
        auto written = writeSuiteJson(json_path, cfg, env, outcomes);
        if (!written.ok()) {
            std::fprintf(stderr, "catchsim: %s\n",
                         written.error().message.c_str());
            rc = rc ? rc : 1;
        } else {
            std::fprintf(stderr, "wrote %s\n", json_path.c_str());
        }
    }
    return rc;
}
