/**
 * @file
 * Host-throughput harness for the simulator itself: how many simulated
 * kilo-instructions per wall-clock second does each (workload, config)
 * pair sustain, and how much memory does the process need?
 *
 * This is NOT a paper figure — it measures the simulator as a program,
 * so the streamed-trace pipeline's speedup/footprint claims in
 * docs/PERFORMANCE.md are reproducible numbers, and CI can catch a
 * throughput regression (tools/ci/check_perf.py).
 *
 * Method: for every workload x config cell, one untimed warm rep
 * (faults in page tables, branch-predictor arrays, the allocator), then
 * N timed reps; the reported figure is the median kilo-instrs/sec over
 * the timed reps. In both modes the numerator is the instructions the
 * run *advances through the trace* (instrs + warmup): a sampled run
 * consumes the same trace span as a detailed one, it just spends most
 * of it in functional warming, so the two modes' kinstr/s figures are
 * directly comparable host-throughput numbers.
 *
 * Peak RSS (ru_maxrss) is process-wide and monotone, so the absolute
 * value sampled after a cell is the campaign-cumulative peak, NOT that
 * cell's footprint. Cells are sampled in declaration order; the final
 * cell's peak_rss_bytes is the campaign peak, and each cell also
 * reports peak_rss_delta_bytes — how much the process peak grew while
 * that cell ran (0 for cells that fit inside an earlier high-water
 * mark).
 *
 * Usage:
 *   bench_perf [--out=FILE] [--reps=N] [--instr=N] [--warmup=N]
 *              [--mode=detailed|sampled] [--store=off|cold|warm]
 *              [--warm-state=off|cold|warm] [--sample-interval=N]
 *              [--quick]
 *
 * --store measures the memoized-generation pipeline (trace/chunk_store):
 * "cold" gives every timed rep a fresh empty store (pays generation plus
 * store bookkeeping), "warm" shares one store across the untimed warm
 * rep and the timed reps so every refill is a memory-tier hit. The
 * simulated results are bitwise-identical in all three settings (pinned
 * by tests/chunk_store_test.cc); only host throughput moves. The cold
 * and warm documents together bound the memoization ceiling in
 * docs/PERFORMANCE.md.
 *
 * --warm-state measures the warmed-state snapshot store on top
 * (sim/warm_state.hh; requires --store != off, since stream restore
 * re-fetches its ring window through the chunk store): "cold" hands
 * every timed rep a fresh empty store, so it pays functional warming
 * plus snapshot serialization and publication — the memoization
 * overhead bound; "warm" shares one store across the untimed warm rep
 * and the timed reps, so every timed rep restores the global-warmup
 * state instead of re-deriving it. Only --mode=sampled runs have a
 * functional-warming phase to skip; under --mode=detailed the knob is
 * accepted but changes nothing. Results stay bitwise-identical in all
 * settings (pinned by tests/warm_state_test.cc).
 *
 * --sample-interval overrides SamplingConfig::intervalInstrs for every
 * sampled cell. Warm-state cells also report a per-cell "warm_state"
 * object (hits/misses/bytes, summed over the timed reps) so
 * check_perf.py --warm-state can report hit rates alongside the
 * speedups.
 *
 * Writes a JSON document (default BENCH_PERF.json) of the shape
 * check_perf.py consumes:
 *   {"instrs":..., "warmup":..., "reps":..., "mode":"detailed",
 *    "results":[{"workload","config","kips_median","kips":[...],
 *                "peak_rss_bytes","peak_rss_delta_bytes"}, ...],
 *    "median_kips_overall":...}
 *
 * --mode=sampled runs the same cells under SampleMode::Sampled (the
 * SamplingConfig defaults) and stamps "mode":"sampled"; check_perf.py
 * --sampled pairs the two documents up to report the sampled-over-
 * detailed speedup per cell.
 *
 * Historical note: through the streamed-pipeline baseline capture
 * (BENCH_PERF_BASELINE.json) this file was restricted to APIs that
 * predate that pipeline so it compiled against the old tree. The
 * baseline is captured; --mode=sampled now uses SamplingConfig, which
 * only exists in the current tree.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sim/configs.hh"
#include "sim/simulator.hh"
#include "sim/warm_state.hh"
#include "trace/chunk_store.hh"
#include "trace/suite.hh"

using namespace catchsim;

namespace
{

double
wallSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

uint64_t
processPeakRssBytes()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

struct Cell
{
    std::string workload;
    std::string config;
    std::vector<double> kips;
    double kipsMedian = 0;
    uint64_t peakRssBytes = 0;      ///< campaign-cumulative process peak
    uint64_t peakRssDeltaBytes = 0; ///< peak growth while this cell ran
    /** Warm-state traffic summed over the timed reps (only filled —
     *  and only exported — when --warm-state != off). */
    RunProfile warm;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One timed rep: a fresh Simulator + workload, full warmup+measure.
 *  When @p prof is non-null the run is guarded (unlimited budget — the
 *  watchdog only observes, results stay bitwise-identical) so the
 *  warm-state counters are attributable to this rep. */
double
timedRep(const SimConfig &cfg, const std::string &name, uint64_t instrs,
         uint64_t warmup, ChunkStore *store = nullptr,
         WarmStateStore *warm_state = nullptr, RunProfile *prof = nullptr)
{
    auto wl = makeWorkload(name);
    Simulator sim(cfg, TraceMode::Streamed, store, warm_state);
    double t0 = wallSeconds();
    SimResult r;
    if (prof) {
        auto guarded = sim.runGuarded(*wl, instrs, warmup,
                                      RunBudget::unlimited(), prof);
        if (!guarded.ok()) {
            std::fprintf(stderr, "bench_perf: %s failed: %s\n",
                         name.c_str(),
                         guarded.error().message.c_str());
            std::exit(1);
        }
        r = std::move(guarded).value();
    } else {
        r = sim.run(*wl, instrs, warmup);
    }
    double sec = wallSeconds() - t0;
    if (cfg.sampling.sampled()) {
        // A sampled run reports only the measured-window instructions
        // in core.instrs; what it must have done is produce windows and
        // carry the sampled marker.
        if (!r.sampled || r.sample.windows == 0) {
            std::fprintf(stderr,
                         "bench_perf: %s sampled run produced no "
                         "windows\n",
                         name.c_str());
            std::exit(1);
        }
    } else if (r.core.instrs != instrs) {
        std::fprintf(stderr, "bench_perf: %s ran %llu instrs, wanted "
                             "%llu\n",
                     name.c_str(),
                     static_cast<unsigned long long>(r.core.instrs),
                     static_cast<unsigned long long>(instrs));
        std::exit(1);
    }
    double simulated = static_cast<double>(instrs + warmup);
    return simulated / sec / 1000.0;
}

void
appendJsonDouble(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_PERF.json";
    unsigned reps = 5;
    uint64_t instrs = 300000, warmup = 100000;
    bool quick = false;
    bool sampled = false;
    std::string store_mode = "off";
    std::string warm_state_mode = "off";
    uint64_t sample_interval = 0; // 0 = SamplingConfig default

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg]() {
            return arg.substr(arg.find('=') + 1);
        };
        if (arg.rfind("--out=", 0) == 0) {
            out_path = value();
        } else if (arg.rfind("--reps=", 0) == 0) {
            long v = std::strtol(value().c_str(), nullptr, 10);
            reps = v >= 1 ? static_cast<unsigned>(v) : 1;
        } else if (arg.rfind("--instr=", 0) == 0) {
            instrs = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg.rfind("--warmup=", 0) == 0) {
            warmup = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg.rfind("--mode=", 0) == 0) {
            std::string v = value();
            if (v == "sampled") {
                sampled = true;
            } else if (v != "detailed") {
                std::fprintf(stderr,
                             "bench_perf: --mode must be detailed or "
                             "sampled\n");
                return 2;
            }
        } else if (arg.rfind("--store=", 0) == 0) {
            store_mode = value();
            if (store_mode != "off" && store_mode != "cold" &&
                store_mode != "warm") {
                std::fprintf(stderr, "bench_perf: --store must be off, "
                                     "cold, or warm\n");
                return 2;
            }
        } else if (arg.rfind("--warm-state=", 0) == 0) {
            warm_state_mode = value();
            if (warm_state_mode != "off" && warm_state_mode != "cold" &&
                warm_state_mode != "warm") {
                std::fprintf(stderr, "bench_perf: --warm-state must be "
                                     "off, cold, or warm\n");
                return 2;
            }
        } else if (arg.rfind("--sample-interval=", 0) == 0) {
            sample_interval = std::strtoull(value().c_str(), nullptr, 10);
            if (sample_interval == 0) {
                std::fprintf(stderr, "bench_perf: --sample-interval "
                                     "must be positive\n");
                return 2;
            }
        } else if (arg == "--quick") {
            quick = true;
        } else {
            std::fprintf(stderr,
                         "usage: bench_perf [--out=FILE] [--reps=N] "
                         "[--instr=N] [--warmup=N] "
                         "[--mode=detailed|sampled] "
                         "[--store=off|cold|warm] "
                         "[--warm-state=off|cold|warm] "
                         "[--sample-interval=N] [--quick]\n");
            return 2;
        }
    }
    if (warm_state_mode != "off" && store_mode == "off") {
        std::fprintf(stderr, "bench_perf: --warm-state requires "
                             "--store=cold or --store=warm (the stream "
                             "restore path re-fetches chunks through "
                             "the chunk store)\n");
        return 2;
    }
    if (quick) {
        instrs = std::min<uint64_t>(instrs, 60000);
        warmup = std::min<uint64_t>(warmup, 20000);
        reps = std::min(reps, 3u);
    }

    // One kernel per family the paper's suite stresses differently:
    // pointer-chasing, discrete-event, streaming HPC, branchy, compute.
    const std::vector<std::string> workloads = {
        "mcf", "omnetpp", "hpc.stream", "gobmk", "hmmer",
    };
    std::vector<SimConfig> configs = {
        baselineSkx(),
        withCatch(baselineSkx()),
    };
    if (sampled) {
        for (SimConfig &cfg : configs) {
            cfg.sampling.mode = SampleMode::Sampled;
            if (sample_interval)
                cfg.sampling.intervalInstrs = sample_interval;
        }
    }

    std::vector<Cell> cells;
    uint64_t rss_before = processPeakRssBytes();
    for (const SimConfig &cfg : configs) {
        for (const std::string &name : workloads) {
            Cell cell;
            cell.workload = name;
            cell.config = cfg.name;
            // Memory-tier-only stores: "warm" shares one store across
            // the cell so the untimed warm rep populates it and every
            // timed rep is served from it; "cold" hands each timed rep
            // a fresh empty store, so it pays generation plus store
            // bookkeeping — the honest memoization overhead bound.
            std::unique_ptr<ChunkStore> warm_store;
            if (store_mode == "warm")
                warm_store = std::make_unique<ChunkStore>();
            // Same sharing discipline for the warmed-state store: the
            // untimed warm rep publishes the snapshots a "warm" cell's
            // timed reps restore.
            std::unique_ptr<WarmStateStore> warm_state_store;
            if (warm_state_mode == "warm")
                warm_state_store = std::make_unique<WarmStateStore>();
            timedRep(cfg, name, instrs, warmup, warm_store.get(),
                     warm_state_store.get()); // warm, untimed
            for (unsigned r = 0; r < reps; ++r) {
                std::unique_ptr<ChunkStore> cold_store;
                if (store_mode == "cold")
                    cold_store = std::make_unique<ChunkStore>();
                ChunkStore *store = store_mode == "warm"
                                        ? warm_store.get()
                                        : cold_store.get();
                std::unique_ptr<WarmStateStore> cold_state_store;
                if (warm_state_mode == "cold")
                    cold_state_store = std::make_unique<WarmStateStore>();
                WarmStateStore *wstate =
                    warm_state_mode == "warm" ? warm_state_store.get()
                                              : cold_state_store.get();
                RunProfile rep_prof;
                RunProfile *prof =
                    warm_state_mode != "off" ? &rep_prof : nullptr;
                cell.kips.push_back(timedRep(cfg, name, instrs, warmup,
                                             store, wstate, prof));
                if (prof) {
                    cell.warm.warmStateHits += prof->warmStateHits;
                    cell.warm.warmStateMisses += prof->warmStateMisses;
                    cell.warm.warmStateBytes += prof->warmStateBytes;
                }
            }
            cell.kipsMedian = median(cell.kips);
            cell.peakRssBytes = processPeakRssBytes();
            cell.peakRssDeltaBytes = cell.peakRssBytes - rss_before;
            rss_before = cell.peakRssBytes;
            std::printf("%-12s %-28s %10.1f kinstr/s  "
                        "(rss %.1f MB, +%.1f MB)\n",
                        cell.workload.c_str(), cell.config.c_str(),
                        cell.kipsMedian,
                        static_cast<double>(cell.peakRssBytes) /
                            (1024.0 * 1024.0),
                        static_cast<double>(cell.peakRssDeltaBytes) /
                            (1024.0 * 1024.0));
            std::fflush(stdout);
            cells.push_back(std::move(cell));
        }
    }

    std::vector<double> medians;
    for (const Cell &c : cells)
        medians.push_back(c.kipsMedian);
    double overall = median(medians);
    std::printf("%-12s %-28s %10.1f kinstr/s\n", "overall", "median",
                overall);

    std::string doc = "{\"instrs\": " + std::to_string(instrs) +
                      ", \"warmup\": " + std::to_string(warmup) +
                      ", \"reps\": " + std::to_string(reps) +
                      ", \"mode\": \"" +
                      (sampled ? "sampled" : "detailed") +
                      "\", \"store\": \"" + store_mode +
                      "\", \"warm_state\": \"" + warm_state_mode +
                      "\", \"sample_interval\": " +
                      std::to_string(sample_interval) +
                      ", \"results\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        doc += "{\"workload\": \"" + c.workload + "\", \"config\": \"" +
               c.config + "\", \"kips_median\": ";
        appendJsonDouble(doc, c.kipsMedian);
        doc += ", \"kips\": [";
        for (size_t k = 0; k < c.kips.size(); ++k) {
            if (k)
                doc += ", ";
            appendJsonDouble(doc, c.kips[k]);
        }
        doc += "], \"peak_rss_bytes\": " + std::to_string(c.peakRssBytes)
               + ", \"peak_rss_delta_bytes\": " +
               std::to_string(c.peakRssDeltaBytes);
        if (warm_state_mode != "off") {
            doc += ", \"warm_state\": {\"hits\": " +
                   std::to_string(c.warm.warmStateHits) +
                   ", \"misses\": " +
                   std::to_string(c.warm.warmStateMisses) +
                   ", \"bytes\": " +
                   std::to_string(c.warm.warmStateBytes) + "}";
        }
        doc += "}";
        doc += i + 1 < cells.size() ? ",\n" : "\n";
    }
    doc += "], \"median_kips_overall\": ";
    appendJsonDouble(doc, overall);
    doc += "}\n";

    std::FILE *f = std::fopen(out_path.c_str(), "wb");
    if (!f || std::fwrite(doc.data(), 1, doc.size(), f) != doc.size() ||
        std::fclose(f) != 0) {
        std::fprintf(stderr, "bench_perf: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    return 0;
}
