/**
 * @file
 * The four benchmark workloads: their seed-derived inputs, their timed
 * passes (tracing off) and the one profiled pass the traced run takes
 * of each.
 *
 * Every workload is a closed loop: each of J worker threads starts its
 * next run when its previous run finishes (J = 1 for detailed and
 * sampled-sweep, J = min(nproc, 4) for campaign and mp-mix).
 *
 * The seed picks inputs; the simulator only ever receives the generated
 * workloads and run lengths. Seed 1 is the canonical input: the suite's
 * own kernels. Other seeds give each kernel another input set of the
 * same program — for detailed and sampled-sweep a fresh generator seed
 * at the suite's parameters, for campaign and mp-mix the suite's "-2"
 * input set where one exists (server kernels keep theirs: their heaps
 * set the process's peak memory) — so a seed changes what is simulated
 * without changing how much work it is. Drawing other suite entries
 * instead spread a detailed pass's cost by 12-18% across ten seeds,
 * wider than any useful regression bound.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "bench.hh"
#include "common/host_clock.hh"
#include "common/rng.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/mp_simulator.hh"
#include "sim/parallel_runner.hh"
#include "trace/kernels/kernels.hh"
#include "trace/suite.hh"
#include "trace/trace_stream.hh"

namespace e2e
{

using namespace catchsim;

Scale
Scale::full()
{
    Scale s;
    s.instrs = 1000000;
    s.warmup = 250000;
    // The Fig 10 bench's own quick-suite defaults (CATCH_INSTR/WARMUP).
    s.campaignInstrs = 300000;
    s.campaignWarmup = 100000;
    s.mpInstrs = 500000;
    s.mpWarmup = 125000;
    s.minPasses = 5;
    return s;
}

Scale
Scale::smoke()
{
    Scale s;
    s.instrs = 30000;
    s.warmup = 10000;
    s.campaignInstrs = 20000;
    s.campaignWarmup = 5000;
    s.mpInstrs = 40000;
    s.mpWarmup = 2000;
    s.minPasses = 1;
    return s;
}

Kernel
suiteKernel(const std::string &name)
{
    return Kernel{name, [name] { return makeWorkload(name); }};
}

namespace
{

constexpr size_t kKiB = 1024;
constexpr size_t kMiB = 1024 * 1024;

/** A kernel family of the detailed and sampled-sweep workloads, built
 *  with the suite's parameters (trace/suite.cc) and any generator seed. */
struct Family
{
    const char *name;
    uint64_t suiteSeed;
    std::function<std::unique_ptr<Workload>(uint64_t)> make;
};

/** Pointer-chase, event-queue, streaming, branchy and L2-resident
 *  compute: the five shapes that load the core, the hierarchy, DRAM,
 *  the DDG detector and TACT differently. */
const std::vector<Family> &
families()
{
    static const std::vector<Family> list = {
        {"mcf", 14,
         [](uint64_t s) {
             return std::make_unique<McfLike>("mcf", s, 1u << 20, 1u << 15);
         }},
        {"omnetpp", 20,
         [](uint64_t s) {
             return std::make_unique<EventQueueLike>("omnetpp", s, 8192u,
                                                     3u);
         }},
        {"hpc.stream", 56,
         [](uint64_t s) {
             return std::make_unique<StreamTriadLike>(
                 "hpc.stream", Category::Hpc, s, 8u << 20, 0u);
         }},
        {"gobmk", 15,
         [](uint64_t s) {
             return std::make_unique<BranchyLike>("gobmk", s, 1 * kMiB, 30u);
         }},
        {"hmmer", 16,
         [](uint64_t s) {
             return std::make_unique<DpTableLike>("hmmer", s, 2048u,
                                                  384 * kKiB, 65536u);
         }},
    };
    return list;
}

std::vector<Kernel>
familyKernels(uint64_t seed)
{
    Rng rng(seed);
    std::vector<Kernel> out;
    for (const Family &f : families()) {
        const uint64_t s = seed == 1 ? f.suiteSeed : rng.next();
        auto make = f.make;
        out.push_back(Kernel{f.name, [make, s] { return make(s); }});
    }
    return out;
}

/** The other input set of @p name's program ("x" <-> "x-2"), or @p name
 *  itself when the suite has none or the kernel is a server kernel. */
std::string
otherInputSet(const std::string &name)
{
    static const std::vector<std::string> suite = stSuiteNames();
    auto known = [](const std::string &n) {
        return std::find(suite.begin(), suite.end(), n) != suite.end();
    };
    std::string alt = name.size() > 2 && name.ends_with("-2")
                          ? name.substr(0, name.size() - 2)
                          : name + "-2";
    if (!known(alt) || makeWorkload(name)->category() == Category::Server)
        return name;
    return alt;
}

std::vector<std::string>
campaignNames(uint64_t seed)
{
    std::vector<std::string> names = stQuickNames();
    if (seed == 1)
        return names;
    Rng rng(seed);
    for (std::string &n : names)
        if (rng.below(2))
            n = otherInputSet(n);
    return names;
}

/**
 * Two RATE-4 mixes and two random ones. Other seeds shuffle every mix's
 * core order and give each core of a RATE-4 mix its program's other
 * input set at random. The random mixes are the two of the suite's
 * thirty in which every core is still running when the slowest one
 * finishes its warmup: in the others MpSimulator measures no instruction
 * of the fastest cores (see README.md), which the benchmark counts as a
 * failed run — and swapping a random mix's input sets can tip it over.
 */
std::vector<MpMix>
mixesFor(uint64_t seed)
{
    const std::set<std::string> wanted = {"rate4.mcf", "rate4.libquantum",
                                          "mix1", "mix29"};
    std::vector<MpMix> mixes;
    for (const MpMix &m : mpMixes())
        if (wanted.contains(m.name))
            mixes.push_back(m);
    if (seed == 1)
        return mixes;
    Rng rng(seed);
    for (MpMix &m : mixes) {
        const bool rate4 = m.name.starts_with("rate4.");
        for (std::string &w : m.workloads)
            if (rng.below(2) && rate4)
                w = otherInputSet(w);
        for (size_t i = m.workloads.size() - 1; i > 0; --i)
            std::swap(m.workloads[i], m.workloads[rng.below(i + 1)]);
    }
    return mixes;
}

/** The Fig 10 campaign's configurations, baseline first. */
std::vector<SimConfig>
fig10Configs()
{
    const SimConfig base = baselineSkx();
    return {base,
            noL2(base, 6656),
            noL2(base, 9728),
            withCatch(noL2(base, 6656)),
            withCatch(noL2(base, 9728)),
            withCatch(base)};
}

SimConfig
mpCatchConfig()
{
    return withCatch(noL2(baselineSkx(), 9728));
}

/** Sampled-mode sweep cells at LLC latency +@p add cycles. */
std::vector<SimConfig>
sweepConfigs(uint32_t add)
{
    std::vector<SimConfig> out;
    for (SimConfig cfg : {baselineSkx(), withCatch(baselineSkx())}) {
        cfg.sampling.mode = SampleMode::Sampled;
        cfg.oracle.latAddLlc = add;
        cfg.name += "+llc" + std::to_string(add);
        out.push_back(cfg);
    }
    return out;
}

/** What one pass did: trace span simulated, operations, failures, and
 *  a digest of every result it produced. */
struct PassOutcome
{
    uint64_t span = 0;
    uint64_t ops = 0;
    uint64_t failed = 0;
    uint64_t digest = 0xcbf29ce484222325ULL;

    /** Folds one run into the pass; @p why is empty when it passed. */
    void
    add(Report &rep, const std::string &json, const std::string &why)
    {
        ++ops;
        digest = fnv1a(json, digest);
        if (!why.empty()) {
            ++failed;
            rep.failure(why);
        }
    }
};

/** One detailed or sampled run of a cell, folded into @p pass. */
void
runInto(PassOutcome &pass, Report &rep, const Kernel &k,
        const SimConfig &cfg, uint64_t instrs, uint64_t warmup,
        ChunkStore *chunks = nullptr, WarmStateStore *warm = nullptr,
        RunProfile *prof = nullptr, std::string *json_out = nullptr)
{
    auto r = runCell(k, cfg, instrs, warmup, chunks, warm, prof);
    pass.span += instrs + warmup;
    if (!r.ok()) {
        pass.add(rep, "", k.name + " on " + cfg.name + ": " +
                              r.error().message);
        return;
    }
    std::string json = r.value().toJson();
    std::string why = checkResult(r.value(), instrs);
    if (!why.empty())
        why = k.name + " on " + cfg.name + ": " + why;
    pass.add(rep, json, why);
    if (json_out)
        *json_out = std::move(json);
}

/**
 * Runs @p setup then @p pass, timing each, until o.seconds have passed
 * and at least the scale's minimum number of passes ran, probing the
 * host before the first set-up and after each pass. Interleaving the
 * set-ups with the passes samples the host across the whole run, as the
 * passes do: back to back at process start, a ~0.1 s set-up read 0.06 s
 * in one process and 0.11 s in the next. Reports set-up time, kips and
 * peak memory, the per-pass digests' agreement, and the operation counts.
 */
void
timedPasses(const Options &o, Report &rep, Calibrator &cal,
            unsigned setup_threads, const std::function<void()> &setup,
            unsigned pass_threads, const std::function<PassOutcome()> &pass)
{
    std::vector<double> setup_s, kips;
    std::vector<PassOutcome> outs;
    cal.sample();
    const double start = now();
    while (outs.size() < o.scale.minPasses || now() - start < o.seconds) {
        double t0 = now();
        setup();
        setup_s.push_back(now() - t0);
        t0 = now();
        PassOutcome p = pass();
        const double dt = now() - t0;
        cal.sample();
        kips.push_back(static_cast<double>(p.span) / dt / 1e3);
        outs.push_back(p);
    }
    auto exponent = [](unsigned threads) {
        return threads > 1 ? Report::kParallelExponent : 1.0;
    };
    rep.add("setup_s", "s", Kind::Time, setup_s, exponent(setup_threads));
    rep.add("kips", "kinstr/s", Kind::Rate, kips, exponent(pass_threads));
    rep.count("peak_rss_mb", "MB",
              static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0));
    for (size_t i = 0; i < outs.size(); ++i) {
        uint64_t failed = outs[i].failed;
        if (outs[i].digest != outs[0].digest) {
            rep.failure("pass " + std::to_string(i) +
                        " results differ from pass 0");
            failed = outs[i].ops;
        }
        rep.ops(outs[i].ops, failed);
    }
    rep.digest(outs[0].digest);
}

/** Constructs every cell's trace stream: the kernels' setup(). */
void
buildStreams(const std::vector<Kernel> &kernels, size_t cells_per_kernel,
             uint64_t span)
{
    for (size_t c = 0; c < cells_per_kernel; ++c) {
        for (const Kernel &k : kernels) {
            auto wl = k.make();
            TraceStream s(*wl, span);
        }
    }
}

// ------------------------------------------------------------- detailed

void
timedDetailed(const Options &o, Report &rep, Calibrator &cal)
{
    const auto kernels = familyKernels(o.seed);
    const std::vector<SimConfig> configs = {baselineSkx(),
                                            withCatch(baselineSkx())};
    const Scale &s = o.scale;
    timedPasses(
        o, rep, cal, 1,
        [&] { buildStreams(kernels, configs.size(), s.instrs + s.warmup); },
        1, [&] {
            PassOutcome p;
            for (const SimConfig &cfg : configs)
                for (const Kernel &k : kernels)
                    runInto(p, rep, k, cfg, s.instrs, s.warmup);
            return p;
        });
}

// -------------------------------------------------------- sampled-sweep

void
timedSampledSweep(const Options &o, Report &rep, Calibrator &cal)
{
    const auto kernels = familyKernels(o.seed);
    const Scale &s = o.scale;

    // Set-up: the LLC+0 sweep into fresh stores — the store write path.
    // Timed passes: the LLC+6 and LLC+12 sweeps reading them — the read
    // path. Every pass starts from the same freshly populated stores.
    std::unique_ptr<ChunkStore> chunks;
    std::unique_ptr<WarmStateStore> warm;
    std::vector<std::string> stored; // the first set-up's LLC+0 results
    PassOutcome setup_pass;
    RunProfile traffic;
    auto setup = [&] {
        chunks = std::make_unique<ChunkStore>();
        warm = sweepWarmStore();
        size_t cell = 0;
        for (const SimConfig &cfg : sweepConfigs(0)) {
            for (const Kernel &k : kernels) {
                std::string json;
                runInto(setup_pass, rep, k, cfg, s.instrs, s.warmup,
                        chunks.get(), warm.get(), nullptr, &json);
                if (cell == stored.size())
                    stored.push_back(json);
                else if (stored[cell] != json) {
                    ++setup_pass.failed;
                    rep.failure("set-up sweep cell " + std::to_string(cell) +
                                " differs between passes");
                }
                ++cell;
            }
        }
    };
    timedPasses(o, rep, cal, 1, setup, 1, [&] {
        PassOutcome p;
        for (uint32_t add : {6u, 12u}) {
            for (const SimConfig &cfg : sweepConfigs(add)) {
                for (const Kernel &k : kernels) {
                    RunProfile prof;
                    runInto(p, rep, k, cfg, s.instrs, s.warmup,
                            chunks.get(), warm.get(), &prof);
                    traffic.storeHitChunks += prof.storeHitChunks;
                    traffic.storeMissChunks += prof.storeMissChunks;
                    traffic.warmStateHits += prof.warmStateHits;
                    traffic.warmStateMisses += prof.warmStateMisses;
                    traffic.warmStateWindowHits += prof.warmStateWindowHits;
                    traffic.warmStateWindowMisses +=
                        prof.warmStateWindowMisses;
                }
            }
        }
        return p;
    });
    rep.ops(setup_pass.ops, setup_pass.failed);
    auto frac = [](uint64_t hits, uint64_t misses) {
        return hits + misses ? static_cast<double>(hits) / (hits + misses)
                             : 0.0;
    };
    rep.count("sweep.chunk_hit_frac", "fraction",
              frac(traffic.storeHitChunks, traffic.storeMissChunks));
    rep.count("sweep.warm_state_hit_frac", "fraction",
              frac(traffic.warmStateHits, traffic.warmStateMisses));
    rep.note("sweep store traffic over the timed passes: chunks " +
             std::to_string(traffic.storeHitChunks) + " hit / " +
             std::to_string(traffic.storeMissChunks) +
             " miss; warm-state global " +
             std::to_string(traffic.warmStateHits) + " hit / " +
             std::to_string(traffic.warmStateMisses) +
             " miss; window consults " +
             std::to_string(traffic.warmStateWindowHits +
                            traffic.warmStateWindowMisses));

    // Checks: stores never change results, and the sampled IPC stays
    // near the detailed one (reported, not asserted).
    PassOutcome check;
    std::vector<std::string> storeless;
    for (const SimConfig &cfg : sweepConfigs(0)) {
        for (const Kernel &k : kernels) {
            std::string json;
            runInto(check, rep, k, cfg, s.instrs, s.warmup, nullptr,
                    nullptr, nullptr, &json);
            storeless.push_back(json);
        }
    }
    for (size_t i = 0; i < stored.size() && i < storeless.size(); ++i) {
        if (stored[i] != storeless[i]) {
            rep.failure("sampled cell " + std::to_string(i) +
                        " differs with stores on and off");
            ++check.failed;
        }
    }
    double worst = 0;
    size_t cell = 0;
    for (SimConfig cfg : {baselineSkx(), withCatch(baselineSkx())}) {
        for (const Kernel &k : kernels) {
            auto d = runCell(k, cfg, s.instrs, s.warmup);
            ++check.ops;
            auto sampled = SimResult::fromJson(stored[cell++]);
            if (!d.ok() || !sampled.ok() || d.value().ipc <= 0) {
                ++check.failed;
                rep.failure("detailed reference for " + k.name + " on " +
                            cfg.name + " failed");
                continue;
            }
            worst = std::max(worst, std::fabs(sampled.value().ipc /
                                                  d.value().ipc -
                                              1.0) *
                                        100.0);
        }
    }
    rep.count("sampled_ipc_err_pct", "%", worst);
    rep.ops(check.ops, check.failed);
}

// ------------------------------------------------------------- campaign

void
timedCampaign(const Options &o, Report &rep, Calibrator &cal)
{
    const auto names = campaignNames(o.seed);
    const auto configs = fig10Configs();
    const Scale &s = o.scale;
    std::vector<Kernel> kernels;
    for (const std::string &n : names)
        kernels.push_back(suiteKernel(n));
    IsolationOptions iso;
    iso.store = nullptr;
    iso.warmStore = nullptr;
    auto setup = [&] {
        buildStreams(kernels, configs.size(),
                     s.campaignInstrs + s.campaignWarmup);
    };
    timedPasses(o, rep, cal, 1, setup, o.jobs, [&] {
        PassOutcome p;
        for (const SimConfig &cfg : configs) {
            auto outs = runWorkloadsIsolated(cfg, names, s.campaignInstrs,
                                             s.campaignWarmup, o.jobs, iso);
            for (const RunOutcome &out : outs) {
                p.span += s.campaignInstrs + s.campaignWarmup;
                const std::string where = out.workload + " on " + cfg.name;
                if (!out.ok()) {
                    p.add(rep, "",
                          where + ": " + runStatusName(out.status) + ": " +
                              (out.failure ? out.failure->error.message
                                           : std::string()));
                    continue;
                }
                std::string why = checkResult(out.result, s.campaignInstrs);
                p.add(rep, out.result.toJson(),
                      why.empty() ? why : where + ": " + why);
            }
        }
        return p;
    });
}

// --------------------------------------------------------------- mp-mix

std::string
mpJson(const MpResult &r)
{
    char buf[64];
    std::string s = r.mix + "|" + r.config;
    for (int c = 0; c < 4; ++c) {
        std::snprintf(buf, sizeof buf, "|%.17g/%.17g", r.ipc[c],
                      r.ipcAlone[c]);
        s += buf;
    }
    std::snprintf(buf, sizeof buf, "|%.17g", r.weightedSpeedup);
    return s + buf;
}

std::string
checkMp(const MpResult &r)
{
    if (!std::isfinite(r.weightedSpeedup) || r.weightedSpeedup <= 0)
        return "non-positive weighted speedup";
    for (int c = 0; c < 4; ++c)
        if (!(r.ipc[c] > 0) || !(r.ipcAlone[c] > 0))
            return "core " + std::to_string(c) + " has no IPC";
    return {};
}

std::map<std::string, double>
soloIpcs(const Options &o, const std::vector<MpMix> &mixes, Report &rep)
{
    auto solo = soloIpcsParallel(baselineSkx(), mixes, o.scale.mpInstrs,
                                 o.scale.mpWarmup, o.jobs);
    uint64_t failed = 0;
    for (const auto &[name, ipc] : solo) {
        if (!(ipc > 0)) {
            ++failed;
            rep.failure("solo run of " + name + " produced no IPC");
        }
    }
    rep.ops(solo.size(), failed);
    return solo;
}

void
timedMpMix(const Options &o, Report &rep, Calibrator &cal)
{
    const auto mixes = mixesFor(o.seed);
    const std::vector<SimConfig> configs = {baselineSkx(), mpCatchConfig()};
    const Scale &s = o.scale;
    std::map<std::string, double> solo;
    auto setup = [&] {
        auto fresh = soloIpcs(o, mixes, rep);
        if (!solo.empty() && fresh != solo) {
            rep.failure("solo IPCs differ between set-ups");
            rep.ops(0, 1);
        }
        solo = std::move(fresh);
    };
    timedPasses(o, rep, cal, o.jobs, setup, o.jobs, [&] {
        PassOutcome p;
        for (const SimConfig &cfg : configs) {
            auto results = runMixesParallel(cfg, mixes, s.mpInstrs,
                                            s.mpWarmup, solo, o.jobs);
            for (const MpResult &r : results) {
                p.span += 4 * (s.mpInstrs + s.mpWarmup);
                const std::string why = checkMp(r);
                p.add(rep, mpJson(r),
                      why.empty() ? why : r.mix + " on " + r.config + ": " + why);
            }
        }
        return p;
    });
}

void
foldOutcome(ProfiledPass &pp, Report &rep, const std::string &where,
            const std::string &why)
{
    ++pp.ops;
    if (!why.empty()) {
        ++pp.failed;
        rep.failure(where + ": " + why);
    }
}

} // namespace

void
runTimed(const Options &o, Report &rep, Calibrator &cal)
{
    if (o.workload == "detailed")
        timedDetailed(o, rep, cal);
    else if (o.workload == "sampled-sweep")
        timedSampledSweep(o, rep, cal);
    else if (o.workload == "campaign")
        timedCampaign(o, rep, cal);
    else
        timedMpMix(o, rep, cal);
}

ProfileSet
profileSet(const Options &o)
{
    ProfileSet ps;
    ps.base = baselineSkx();
    ps.catchCfg = withCatch(baselineSkx());
    if (o.workload == "detailed" || o.workload == "sampled-sweep") {
        ps.kernels = familyKernels(o.seed);
        ps.instrs = o.scale.instrs;
        ps.warmup = o.scale.warmup;
    } else if (o.workload == "campaign") {
        // One kernel per category, the first the campaign lists.
        std::set<Category> seen;
        for (const std::string &n : campaignNames(o.seed))
            if (seen.insert(makeWorkload(n)->category()).second)
                ps.kernels.push_back(suiteKernel(n));
        ps.instrs = o.scale.campaignInstrs;
        ps.warmup = o.scale.campaignWarmup;
    } else {
        std::set<std::string> seen;
        for (const MpMix &m : mixesFor(o.seed))
            for (const std::string &w : m.workloads)
                if (ps.kernels.size() < 5 && seen.insert(w).second)
                    ps.kernels.push_back(suiteKernel(w));
        ps.catchCfg = mpCatchConfig();
        ps.instrs = o.scale.mpInstrs;
        ps.warmup = o.scale.mpWarmup;
    }
    return ps;
}

ProfiledPass
profiledPass(const Options &o, Report &rep)
{
    ProfiledPass pp;
    const Scale &s = o.scale;
    const double t0 = now();

    if (o.workload == "detailed" || o.workload == "sampled-sweep") {
        const bool sampled = o.workload == "sampled-sweep";
        const auto kernels = familyKernels(o.seed);
        ChunkStore chunks;
        const auto warm = sweepWarmStore();
        std::vector<SimResult> first[2];
        const std::vector<uint32_t> adds = sampled
                                               ? std::vector<uint32_t>{0, 6, 12}
                                               : std::vector<uint32_t>{0};
        for (uint32_t add : adds) {
            std::vector<SimConfig> configs =
                sampled ? sweepConfigs(add)
                        : std::vector<SimConfig>{baselineSkx(),
                                                 withCatch(baselineSkx())};
            for (size_t c = 0; c < configs.size(); ++c) {
                for (const Kernel &k : kernels) {
                    const double r0 = now();
                    auto r = runCell(k, configs[c], s.instrs, s.warmup,
                                     sampled ? &chunks : nullptr,
                                     sampled ? warm.get() : nullptr);
                    pp.opSeconds.push_back(now() - r0);
                    const std::string where = k.name + " on " +
                                              configs[c].name;
                    foldOutcome(pp, rep, where,
                                r.ok() ? checkResult(r.value(), s.instrs)
                                       : r.error().message);
                    if (add == 0 && r.ok())
                        first[c].push_back(r.value());
                }
            }
        }
        if (first[0].size() == first[1].size() && !first[0].empty())
            pp.catchGain = overallGeomean(first[0], first[1]) - 1.0;
        pp.wallSeconds = now() - t0;
        return pp;
    }

    if (o.workload == "campaign") {
        const auto names = campaignNames(o.seed);
        const auto configs = fig10Configs();
        IsolationOptions iso;
        iso.store = nullptr;
        iso.warmStore = nullptr;
        iso.profile = true;
        std::vector<std::vector<SimResult>> results;
        for (const SimConfig &cfg : configs) {
            auto outs = runWorkloadsIsolated(cfg, names, s.campaignInstrs,
                                             s.campaignWarmup, o.jobs, iso);
            std::vector<SimResult> rs;
            for (const RunOutcome &out : outs) {
                const std::string where = out.workload + " on " + cfg.name;
                foldOutcome(pp, rep, where,
                            out.ok() ? checkResult(out.result,
                                                   s.campaignInstrs)
                                     : std::string(runStatusName(out.status)));
                if (out.profile)
                    pp.opSeconds.push_back(out.profile->warmupSec +
                                           out.profile->measuredSec);
                rs.push_back(out.result);
            }
            results.push_back(std::move(rs));
        }
        pp.wallSeconds = now() - t0;
        pp.jobs = o.jobs;
        pp.opThreads = o.jobs;
        if (pp.failed == 0) {
            pp.catchGain = overallGeomean(results[0], results.back()) - 1.0;
            const char *labels[] = {"NoL2+6.5", "NoL2+9.5", "NoL2+6.5+CATCH",
                                    "NoL2+9.5+CATCH", "CATCH"};
            const char *paper[] = {"-7.79%", "-5.12%", "+4.55%", "+7.23%",
                                   "+8.41%"};
            for (size_t c = 1; c < results.size(); ++c) {
                std::string line = std::string("fig10 ") + labels[c - 1] +
                                   " (paper " + paper[c - 1] + "):";
                for (const auto &[cat, g] :
                     categoryGeomeans(results[0], results[c])) {
                    char buf[64];
                    std::snprintf(buf, sizeof buf, " %s %+.2f%%",
                                  cat.c_str(), (g - 1.0) * 100.0);
                    line += buf;
                }
                pp.extras.push_back(line);
            }
        }
        return pp;
    }

    // mp-mix: the parallel pass gives the wall time; each mix is then
    // timed alone, serially, for the per-operation seconds.
    const auto mixes = mixesFor(o.seed);
    const std::vector<SimConfig> configs = {baselineSkx(), mpCatchConfig()};
    const auto solo = soloIpcsParallel(baselineSkx(), mixes, s.mpInstrs,
                                       s.mpWarmup, o.jobs);
    const double p0 = now();
    double ws[2] = {0, 0};
    std::vector<std::string> per_mix(mixes.size());
    for (size_t c = 0; c < configs.size(); ++c) {
        const auto results = runMixesParallel(configs[c], mixes, s.mpInstrs,
                                              s.mpWarmup, solo, o.jobs);
        for (size_t i = 0; i < results.size(); ++i) {
            const MpResult &r = results[i];
            foldOutcome(pp, rep, r.mix + " on " + r.config, checkMp(r));
            ws[c] += r.weightedSpeedup;
            char buf[32];
            std::snprintf(buf, sizeof buf, c ? " -> %.3f" : " %.3f",
                          r.weightedSpeedup);
            per_mix[i] += buf;
        }
    }
    for (size_t i = 0; i < mixes.size(); ++i)
        pp.extras.push_back("mp weighted speedup " + mixes[i].name + ":" +
                            per_mix[i]);
    pp.wallSeconds = now() - p0;
    pp.jobs = o.jobs;
    for (const SimConfig &cfg : configs) {
        for (const MpMix &m : mixes) {
            std::array<double, 4> alone{};
            for (int c = 0; c < 4; ++c)
                alone[c] = solo.at(m.workloads[c]);
            MpSimulator sim(cfg);
            const double r0 = now();
            sim.run(m, s.mpInstrs, s.mpWarmup, alone);
            pp.opSeconds.push_back(now() - r0);
        }
    }
    if (ws[0] > 0)
        pp.catchGain = ws[1] / ws[0] - 1.0;
    rep.add("sim.mp.mix_s", "s", Kind::Time, pp.opSeconds);
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "mp weighted-speedup gain of NoL2+CATCH: %+.2f%% "
                  "(paper +8.45%%)",
                  pp.catchGain * 100.0);
    pp.extras.push_back(buf);
    return pp;
}

} // namespace e2e
