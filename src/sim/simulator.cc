#include "sim/simulator.hh"

#include <optional>
#include <stdexcept>

#include "common/host_clock.hh"
#include "common/logging.hh"
#include "common/state_io.hh"
#include "criticality/heuristic_detector.hh"
#include "sim/fast_forward.hh"
#include "trace/suite.hh"
#include "trace/trace_stream.hh"

namespace catchsim
{

namespace
{

/**
 * One warmed-state snapshot: the boundary trace position followed by
 * every warming-visible component in a fixed order, written once for
 * save and load (see common/state_io.hh). DRAM and the resettable
 * stats are deliberately absent (untouched / reset at the boundary —
 * see the WarmStateStore file comment). The critical table IS
 * included: its entries are still untrained at the global boundary,
 * but warm fills query it through the hierarchy's criticality callback
 * and its cumulative query counters are never reset, so skipping the
 * warmup must restore them too. The functional-memory image travels
 * beside the blob as copy-on-write shared pages (WarmSnapshot), which
 * the stream's restore adopts; taking it marks every live page shared,
 * so the run's own later writes clone instead of mutating the
 * published snapshot.
 */
template <typename IO, typename Pos, typename Stream, typename Hierarchy,
          typename Predictor, typename Detector, typename TactT,
          typename FastFwd>
void
warmFields(IO &io, Pos &boundary_pos, Stream &stream,
           const FunctionalMemory::PageImage &pages, Hierarchy &hierarchy,
           Predictor &predictor, Detector *detector, TactT *tact,
           FastFwd &ff)
{
    io.tag(stateTag("WSNP"));
    io.u64(boundary_pos);
    io.section(stream, pages);
    io.section(hierarchy);
    io.section(predictor);
    io.match(detector != nullptr);
    if (detector)
        io.section(detector->table());
    io.match(tact != nullptr);
    if (tact)
        io.section(*tact);
    io.section(ff);
}

WarmSnapshot
makeWarmSnapshot(uint64_t boundary_pos, const TraceStream &stream,
                 const CacheHierarchy &hierarchy,
                 const BranchPredictor &predictor,
                 const CriticalityDetector *detector, const Tact *tact,
                 const FastForward &ff)
{
    WarmSnapshot snap{{}, stream.mem()->snapshotPages()};
    StateSink sink;
    warmFields(sink, boundary_pos, stream, snap.pages, hierarchy, predictor,
               detector, tact, ff);
    snap.bytes = sink.take();
    return snap;
}

bool
loadWarmSnapshot(const WarmSnapshot &snap, uint64_t *boundary_pos,
                 TraceStream &stream, CacheHierarchy &hierarchy,
                 BranchPredictor &predictor, CriticalityDetector *detector,
                 Tact *tact, FastForward &ff)
{
    StateSource src(snap.bytes);
    warmFields(src, *boundary_pos, stream, snap.pages, hierarchy, predictor,
               detector, tact, ff);
    // Trailing bytes mean the writer serialized more than this reader
    // parses — a format drift the record checksum cannot catch.
    return src.exhausted();
}

} // namespace

Machine::Machine(const SimConfig &cfg, const std::vector<CoreTrace> &traces)
    : hierarchy_(cfg)
{
    const CoreId n = cfg.numCores;
    CATCHSIM_ASSERT(traces.size() == n, "one trace per core");
    detectors_.resize(n);
    tacts_.resize(n);
    // The oracle demotion studies and Fig 5's PC-limited oracle prefetch
    // consult the critical table without enabling criticality; the
    // latter sizes the table to its PC limit.
    const OracleConfig &oracle = cfg.oracle;
    const bool pc_limited =
        oracle.oraclePrefetch && oracle.oraclePrefetchPcLimit;
    const bool need_detector =
        cfg.criticality.enabled ||
        oracle.demote == DemoteMode::L1ToL2NonCrit ||
        oracle.demote == DemoteMode::L2ToLlcNonCrit ||
        oracle.demote == DemoteMode::LlcToMemNonCrit || pc_limited;
    if (need_detector) {
        CriticalityConfig ccfg = cfg.criticality;
        if (pc_limited)
            ccfg.tableEntries = oracle.oraclePrefetchPcLimit;
        for (CoreId c = 0; c < n; ++c) {
            if (ccfg.kind == DetectorKind::Heuristic)
                detectors_[c] =
                    std::make_unique<HeuristicCriticalityDetector>(ccfg);
            else
                detectors_[c] = std::make_unique<DdgCriticalityDetector>(
                    ccfg, cfg.robSize, cfg.renameLat, cfg.redirectLat,
                    cfg.width);
        }
        hierarchy_.setCriticalQuery([this](CoreId c, Addr pc) {
            return detectors_[c]->isCritical(pc);
        });
    }

    if (cfg.tact.any()) {
        CATCHSIM_ASSERT(need_detector, "TACT requires the detector");
        for (CoreId c = 0; c < n; ++c) {
            const CriticalityDetector *det = detectors_[c].get();
            const CoreTrace &t = traces[c];
            tacts_[c] = std::make_unique<Tact>(
                cfg.tact, c, hierarchy_,
                [det](Addr pc) { return det->isCritical(pc); },
                t.stream ? t.stream->mem().get() : t.trace->mem.get());
        }
    }

    for (CoreId c = 0; c < n; ++c) {
        cores_.push_back(std::make_unique<OooCore>(
            cfg, c, hierarchy_, detector(c), tact(c)));
        if (traces[c].stream)
            cores_[c]->bind(*traces[c].stream);
        else
            cores_[c]->bind(*traces[c].trace);
    }
}

std::optional<SimError>
Machine::run(uint64_t warmup, const RunBudget &budget,
             const std::function<void()> &on_measure)
{
    // Every step retires an instruction, so only the watchdog's cycle
    // ceiling can trip here; polling every 64 steps keeps it off the
    // hot path and bounds the overrun deterministically.
    Watchdog wd(budget);
    const bool polled = budget.limited();
    uint64_t retired = 0;
    bool measuring = false;
    while (true) {
        // One stats reset, once every core has passed the warmup.
        // Checked before choosing a step, so a zero warmup measures
        // from the first instruction.
        if (!measuring) {
            measuring = true;
            for (auto &core : cores_)
                measuring &= core->instrsDone() >= warmup;
            if (measuring) {
                hierarchy_.resetStats();
                for (auto &core : cores_)
                    core->markMeasurementStart();
                if (on_measure)
                    on_measure();
            }
        }

        // The unfinished core with the lowest local clock steps next,
        // so the shared LLC and DRAM see one time-ordered access
        // stream. Tie-break: on equal now() the lowest core id steps
        // first (the scan runs in id order and only a strictly lower
        // clock displaces the current pick).
        OooCore *next = nullptr;
        for (auto &core : cores_)
            if (!core->done() && (!next || core->now() < next->now()))
                next = core.get();
        if (!next)
            return std::nullopt;
        next->step();
        ++retired;
        if (polled && (retired & 63) == 0)
            if (auto err = wd.poll(next->now(), retired))
                return err;
    }
}

Simulator::Simulator(const SimConfig &cfg, TraceMode mode,
                     ChunkStore *store, WarmStateStore *warm_store)
    : cfg_(cfg), mode_(mode), store_(store), warmStore_(warm_store)
{
    cfg_.numCores = 1;
    auto valid = cfg_.validate();
    CATCHSIM_ASSERT(valid.ok(), "invalid config reached the Simulator: ",
                    valid.ok() ? "" : valid.error().message);
}

SimResult
Simulator::run(Workload &workload, uint64_t instrs, uint64_t warmup)
{
    auto r = runGuarded(workload, instrs, warmup, RunBudget::unlimited());
    // Unlimited budget: the watchdog can never trip.
    CATCHSIM_ASSERT(r.ok(), "unguarded run failed: ",
                    r.ok() ? "" : r.error().message);
    return std::move(r).value();
}

Expected<SimResult>
Simulator::runGuarded(Workload &workload, uint64_t instrs, uint64_t warmup,
                      const RunBudget &budget, RunProfile *profile)
{
    // Trace source: streamed (default) or fully materialized. Both
    // drive the core through the same TraceView; the streamed path
    // additionally passes a host clock down iff profiling, so refill
    // time can be attributed to trace generation.
    const bool prof = profile != nullptr;
    double phase_start = prof ? hostSeconds() : 0;
    std::optional<Trace> trace;
    std::optional<TraceStream> stream;
    if (mode_ == TraceMode::Materialized) {
        trace.emplace(workload.generate(instrs + warmup));
        if (prof) {
            profile->traceGenSec = hostSeconds() - phase_start;
            phase_start = hostSeconds();
        }
    } else {
        stream.emplace(workload, instrs + warmup,
                       TraceStream::kDefaultChunkOps,
                       prof ? std::function<double()>(hostSeconds)
                            : std::function<double()>(),
                       store_);
    }
    Machine machine(cfg_, {{stream ? &*stream : nullptr,
                            trace ? &*trace : nullptr}});
    CacheHierarchy &hierarchy = machine.hierarchy();
    OooCore &core = machine.core(0);
    CriticalityDetector *detector = machine.detector(0);
    Tact *tact = machine.tact(0);

    const SamplingConfig &sc = cfg_.sampling;
    SampleStats sample;
    CoreStats sampled_core;
    FrontendStats sampled_frontend;
    double ipc_sum = 0, ipc_sq_sum = 0;

    if (!sc.sampled()) {
        if (auto err = machine.run(warmup, budget, [&] {
                if (prof) {
                    profile->warmupSec = hostSeconds() - phase_start;
                    phase_start = hostSeconds();
                }
            }))
            return *err;
    } else {
        // Sampled mode: functional warming interleaved with detailed
        // windows, stepped here on the machine's one core. The schedule
        // is a pure function of the instruction counter (never wall
        // clock), so results are bitwise-identical at any job count.
        // Warming does not advance core time and the watchdog sees
        // instruction progress, so one poll per phase bounds a
        // cycle-ceiling overrun by a window's worth of steps.
        Watchdog wd(budget);
        FastForward ff(0, hierarchy, core.frontend().predictor(), tact);
        if (stream)
            ff.bind(*stream);
        else
            ff.bind(*trace);

        auto accumulate = [](CoreStats &acc, const CoreStats &w) {
            acc.instrs += w.instrs;
            acc.cycles += w.cycles;
            acc.loads += w.loads;
            acc.stores += w.stores;
            acc.forwardedLoads += w.forwardedLoads;
            acc.branch.branches += w.branch.branches;
            acc.branch.mispredicts += w.branch.mispredicts;
            acc.branch.directionWrong += w.branch.directionWrong;
            acc.branch.targetWrong += w.branch.targetWrong;
        };

        // The global warmup is memoized through the warm-state store
        // when one is attached: the warmed state at the boundary is a
        // pure function of the key, so a hit restores it and jumps the
        // cursor instead of re-deriving it. Eligibility requires the
        // chunk store (the stream restore re-fetches its ring window
        // through it) and a nonzero warmup (nothing to memoize
        // otherwise). The key carries the warm-only digest, so pure
        // timing resweeps share the snapshot. A found snapshot a
        // component rejects is dropped and fails transient — the retry
        // re-warms cleanly.
        size_t before = core.tracePos();
        std::optional<WarmStateKey> wkey;
        if (warmStore_ && stream && stream->storeBacked() && warmup > 0)
            wkey = WarmStateKey{workload.name(), workload.seed(), warmup,
                                instrs + warmup, stream->chunkOps(),
                                warmConfigDigest(cfg_)};
        RunProfile unprofiled;
        RunProfile &tally = prof ? *profile : unprofiled;
        if (WarmStateStore::SnapshotPtr snap =
                wkey ? warmStore_->find(*wkey) : nullptr) {
            uint64_t pos = 0;
            if (!loadWarmSnapshot(*snap, &pos, *stream, hierarchy,
                                  core.frontend().predictor(), detector,
                                  tact, ff) ||
                pos > stream->size()) {
                // A component rejected a snapshot this build saved:
                // a save/load asymmetry. Drop it so the retry re-warms.
                warmStore_->remove(*wkey);
                return simError(ErrorCategory::IoTransient,
                                "warm-state snapshot for '",
                                workload.name(),
                                "' failed component restore — dropped; "
                                "retry re-warms");
            }
            core.skipTo(pos);
            ++tally.warmStateHits;
            tally.warmStateBytes += snap->residentBytes();
        } else {
            core.skipTo(ff.warm(before, warmup, core.now()));
            if (wkey) {
                WarmSnapshot made = makeWarmSnapshot(
                    core.tracePos(), *stream, hierarchy,
                    core.frontend().predictor(), detector, tact, ff);
                ++tally.warmStateMisses;
                tally.warmStateBytes += made.residentBytes();
                warmStore_->put(*wkey, std::move(made));
            }
        }
        sample.warmedInstrs += core.tracePos() - before;
        if (budget.limited())
            if (auto err = wd.poll(core.now(), core.instrsDone()))
                return *err;
        hierarchy.resetStats();
        if (prof) {
            profile->warmupSec = hostSeconds() - phase_start;
            phase_start = hostSeconds();
        }

        // Where in each period the detailed (warmup + window) segment
        // sits. A fixed offset aliases with any program periodicity
        // near the interval length, so the segment is staggered by a
        // Weyl sequence on the period index — deterministic, therefore
        // still bitwise-identical at any job count.
        //
        // The warming between consecutive detailed segments — the
        // previous period's trailing slack plus this period's leading
        // offset — runs as ONE contiguous gap. Warming is associative
        // over contiguous ranges (the filter state persists inside ff
        // and core time never advances during warming), so the merged
        // gap derives bitwise the state the split phases did.
        const uint64_t slack =
            sc.intervalInstrs - sc.warmupInstrs - sc.windowInstrs;
        uint64_t pending_post = 0;
        uint64_t period = 0;
        while (!core.done()) {
            // Functional warming up to this period's detailed segment
            // (period 0's gap is empty: pre(0) = 0 by construction).
            const uint64_t pre =
                slack ? (period * 2654435761ULL) % (slack + 1) : 0;
            const uint64_t gap = pending_post + pre;
            pending_post = slack - pre;
            if (gap) {
                before = core.tracePos();
                core.skipTo(ff.warm(before, gap, core.now()));
                sample.warmedInstrs += core.tracePos() - before;
                if (budget.limited())
                    if (auto err =
                            wd.poll(core.now(), core.instrsDone()))
                        return *err;
            }
            if (core.done())
                break;

            // Detailed-but-unmeasured warmup: re-establishes pipeline,
            // MSHR and DRAM timing state after the zero-time warming.
            uint64_t t = core.instrsDone() + sc.warmupInstrs;
            while (core.instrsDone() < t && core.step()) {
            }
            if (budget.limited())
                if (auto err = wd.poll(core.now(), core.instrsDone()))
                    return *err;
            if (core.done())
                break;

            core.markMeasurementStart();
            uint64_t w = core.instrsDone() + sc.windowInstrs;
            while (core.instrsDone() < w && core.step()) {
            }
            if (budget.limited())
                if (auto err = wd.poll(core.now(), core.instrsDone()))
                    return *err;
            CoreStats ws = core.stats();
            if (ws.instrs == 0)
                break;
            double ipc_w =
                ws.cycles ? static_cast<double>(ws.instrs) / ws.cycles
                          : 0.0;
            if (sample.windows == 0 || ipc_w < sample.ipcMin)
                sample.ipcMin = ipc_w;
            if (sample.windows == 0 || ipc_w > sample.ipcMax)
                sample.ipcMax = ipc_w;
            ++sample.windows;
            ipc_sum += ipc_w;
            ipc_sq_sum += ipc_w * ipc_w;
            accumulate(sampled_core, ws);
            const FrontendStats &fs = core.frontend().stats();
            sampled_frontend.lineFetches += fs.lineFetches;
            sampled_frontend.codeStallCycles += fs.codeStallCycles;
            sampled_frontend.redirects += fs.redirects;

            // The period's trailing slack is deferred into the next
            // iteration's gap. A run that ends here leaves it unwarmed
            // — exactly what the split loop did, whose trailing warm
            // clamped to the trace end and added nothing.
            ++period;
        }
    }
    if (prof) {
        profile->measuredSec = hostSeconds() - phase_start;
        if (stream) {
            profile->traceGenSec = stream->genSeconds();
            profile->storeHitChunks = stream->storeHits();
            profile->storeMissChunks = stream->storeMisses();
        }
        profile->peakRssBytes = peakRssBytes();
    }

    SimResult r;
    r.workload = workload.name();
    r.config = cfg_.name;
    r.category = workload.category();
    if (sc.sampled()) {
        // Aggregate of the measured windows. The headline IPC is the
        // ratio estimator (summed window instrs over summed window
        // cycles) — the arithmetic mean of per-window IPCs is biased
        // high whenever windows vary (it is bounded below by the
        // harmonic mean, which is what aggregate IPC actually is). The
        // per-window mean/variance stay in SampleStats as confidence
        // diagnostics.
        r.core = sampled_core;
        r.ipc = r.core.ipc();
        if (sample.windows) {
            sample.ipcMean = ipc_sum / sample.windows;
            double var = ipc_sq_sum / sample.windows -
                         sample.ipcMean * sample.ipcMean;
            sample.ipcVariance = var > 0 ? var : 0.0;
        }
        r.sampled = true;
        r.sample = sample;
    } else {
        r.core = core.stats();
        r.ipc = r.core.ipc();
    }
    r.hier = hierarchy.stats();
    r.l1d = hierarchy.l1dStats(0);
    r.l1i = hierarchy.l1iStats(0);
    r.hasL2 = hierarchy.hasL2();
    if (r.hasL2)
        r.l2 = *hierarchy.l2Stats(0);
    r.llc = hierarchy.llcStats();
    r.dram = hierarchy.dramStats();
    r.frontend = sc.sampled() ? sampled_frontend : core.frontend().stats();
    if (detector) {
        if (auto *ddg =
                dynamic_cast<const DdgCriticalityDetector *>(detector))
            r.ddg = ddg->stats();
        r.criticalTable = detector->table().stats();
        r.activeCriticalPcs = detector->table().activeCount();
    }
    if (tact)
        r.tact = tact->stats();

    const Histogram &tl = hierarchy.tactTimeliness();
    r.timelinessAtLeast80 = tl.fractionAtLeast(80);
    r.timelinessAtLeast10 = tl.fractionAtLeast(10);
    uint64_t pf_located = r.hier.tactPfFromL2 + r.hier.tactPfFromLlc +
                          r.hier.tactPfFromMem;
    r.tactFromLlcFraction =
        pf_located ? static_cast<double>(r.hier.tactPfFromLlc) / pf_located
                   : 0.0;

    uint64_t l1_ops = r.l1d.readOps + r.l1d.writeOps + r.l1i.readOps +
                      r.l1i.writeOps;
    uint64_t l2_ops = r.hasL2 ? r.l2.readOps + r.l2.writeOps : 0;
    uint64_t llc_ops = r.llc.readOps + r.llc.writeOps;
    // Sampled runs leak the per-window warmup cycles into core.now(),
    // so the summed window cycles are the measured-time base there;
    // detailed runs measure from the one stats reset.
    r.energy = computeEnergy(EnergyParams{}, cfg_, r.core.instrs,
                             r.core.cycles,
                             l1_ops, l2_ops, llc_ops,
                             r.hier.ringTransfers, r.dram);
    return r;
}

SimResult
runWorkload(const SimConfig &cfg, const std::string &name, uint64_t instrs,
            uint64_t warmup)
{
    auto wl = makeWorkload(name);
    Simulator sim(cfg);
    return sim.run(*wl, instrs, warmup);
}

Expected<SimResult>
runWorkloadGuarded(const SimConfig &cfg, const std::string &name,
                   uint64_t instrs, uint64_t warmup,
                   const RunBudget &budget, const FaultPlan &plan,
                   unsigned attempt, RunProfile *profile,
                   ChunkStore *store, WarmStateStore *warm_store)
{
    if (plan.enabled()) {
        if (plan.shouldInject(FaultKind::TraceCorrupt, name, attempt))
            return simError(ErrorCategory::TraceCorrupt,
                            "injected trace corruption in '", name, "'");
        if (plan.shouldInject(FaultKind::IoTransient, name, attempt))
            return simError(ErrorCategory::IoTransient,
                            "injected transient IO failure in '", name,
                            "' (attempt ", attempt, ")");
        if (plan.shouldInject(FaultKind::WorkerThrow, name, attempt))
            throw std::runtime_error("injected worker exception in '" +
                                     name + "'");
        if (plan.shouldInject(FaultKind::Hang, name, attempt)) {
            if (!budget.limited())
                return simError(ErrorCategory::BudgetExceeded,
                                "injected hang in '", name,
                                "' (no budget configured; failing "
                                "immediately)");
            // Drive the real watchdog with no-progress polls so the
            // containment path under test is the production one.
            Watchdog wd(budget);
            for (uint64_t cycle = 0;; cycle += 4096)
                if (auto err = wd.poll(cycle, 0))
                    return *err;
        }
    }

    if (auto valid = cfg.validate(); !valid.ok())
        return valid.error();
    auto wl = findWorkload(name);
    if (!wl.ok())
        return wl.error();
    Simulator sim(cfg, TraceMode::Streamed, store, warm_store);
    return sim.runGuarded(*wl.value(), instrs, warmup, budget, profile);
}

} // namespace catchsim
