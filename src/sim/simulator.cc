#include "sim/simulator.hh"

#include <optional>
#include <stdexcept>

#include "common/host_clock.hh"
#include "common/logging.hh"
#include "common/state_io.hh"
#include "criticality/heuristic_detector.hh"
#include "sim/fast_forward.hh"
#include "sim/worker_proto.hh"
#include "trace/suite.hh"
#include "trace/trace_stream.hh"

namespace catchsim
{

namespace
{

/**
 * One warmed-state snapshot: the boundary trace position followed by
 * every warming-visible component in a fixed order. save and load walk
 * the same sequence, so the round-trip contract lives in this one
 * place; DRAM and the resettable stats are deliberately absent
 * (untouched / reset at the boundary — see the WarmStateStore file
 * comment). The critical table IS included: its entries are still
 * untrained at the global boundary, but warm fills query it through
 * the hierarchy's criticality callback and its cumulative query
 * counters are never reset, so skipping the warmup must restore them
 * too. The functional-memory image travels beside the blob as
 * copy-on-write shared pages (WarmSnapshot); taking it marks every
 * live page shared, so the run's own later writes clone instead of
 * mutating the published snapshot.
 */
WarmSnapshot
makeWarmSnapshot(uint64_t boundary_pos, const TraceStream &stream,
                 const CacheHierarchy &hierarchy,
                 const BranchPredictor &predictor,
                 const CriticalityDetector *detector, const Tact *tact,
                 const FastForward &ff)
{
    StateSink sink;
    sink.tag(stateTag("WSNP"));
    sink.u64(boundary_pos);
    stream.saveWarmState(sink);
    hierarchy.saveWarmState(sink);
    predictor.saveWarmState(sink);
    sink.boolean(detector != nullptr);
    if (detector)
        detector->table().saveWarmState(sink);
    sink.boolean(tact != nullptr);
    if (tact)
        tact->saveWarmState(sink);
    ff.saveWarmState(sink);
    return WarmSnapshot{sink.take(), stream.mem()->snapshotPages()};
}

bool
loadWarmSnapshot(const WarmSnapshot &snap, uint64_t *boundary_pos,
                 TraceStream &stream, CacheHierarchy &hierarchy,
                 BranchPredictor &predictor, CriticalityDetector *detector,
                 Tact *tact, FastForward &ff)
{
    StateSource src(snap.bytes);
    if (!src.expect(stateTag("WSNP")))
        return false;
    *boundary_pos = src.u64();
    // Trailing bytes mean the writer serialized more than this reader
    // parses — a format drift the record checksum cannot catch.
    return stream.loadWarmState(src, snap.pages) &&
           hierarchy.loadWarmState(src) && predictor.loadWarmState(src) &&
           src.boolean() == (detector != nullptr) &&
           (!detector || detector->table().loadWarmState(src)) &&
           src.boolean() == (tact != nullptr) &&
           (!tact || tact->loadWarmState(src)) && ff.loadWarmState(src) &&
           src.exhausted();
}

} // namespace

Simulator::Simulator(const SimConfig &cfg, TraceMode mode,
                     ChunkStore *store, WarmStateStore *warm_store)
    : cfg_(cfg), mode_(mode), store_(store), warmStore_(warm_store)
{
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
    SimConfig cfg = cfg_;
    cfg.numCores = 1;

    // Trace source: streamed (default) or fully materialized. Both
    // drive the core through the same TraceView; the streamed path
    // additionally passes a host clock down iff profiling, so refill
    // time can be attributed to trace generation.
    const bool prof = profile != nullptr;
    double phase_start = prof ? hostSeconds() : 0;
    std::optional<Trace> trace;
    std::optional<TraceStream> stream;
    const FunctionalMemory *mem = nullptr;
    if (mode_ == TraceMode::Materialized) {
        trace.emplace(workload.generate(instrs + warmup));
        mem = trace->mem.get();
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
        mem = stream->mem().get();
    }
    CacheHierarchy hierarchy(cfg);

    std::unique_ptr<CriticalityDetector> detector;
    DdgCriticalityDetector *ddg = nullptr;
    bool need_detector =
        cfg.criticality.enabled ||
        cfg.oracle.demote == DemoteMode::L1ToL2NonCrit ||
        cfg.oracle.demote == DemoteMode::L2ToLlcNonCrit ||
        cfg.oracle.demote == DemoteMode::LlcToMemNonCrit ||
        (cfg.oracle.oraclePrefetch && cfg.oracle.oraclePrefetchPcLimit);
    if (need_detector) {
        CriticalityConfig ccfg = cfg.criticality;
        if (cfg.oracle.oraclePrefetch && cfg.oracle.oraclePrefetchPcLimit)
            ccfg.tableEntries = cfg.oracle.oraclePrefetchPcLimit;
        if (ccfg.kind == DetectorKind::Heuristic) {
            detector =
                std::make_unique<HeuristicCriticalityDetector>(ccfg);
        } else {
            auto d = std::make_unique<DdgCriticalityDetector>(
                ccfg, cfg.robSize, cfg.renameLat, cfg.redirectLat,
                cfg.width);
            ddg = d.get();
            detector = std::move(d);
        }
        hierarchy.setCriticalQuery([&detector](CoreId, Addr pc) {
            return detector->isCritical(pc);
        });
    }

    std::unique_ptr<Tact> tact;
    if (cfg.tact.any()) {
        CATCHSIM_ASSERT(detector != nullptr, "TACT requires the detector");
        tact = std::make_unique<Tact>(
            cfg.tact, 0, hierarchy,
            [&detector](Addr pc) { return detector->isCritical(pc); },
            mem);
    }

    OooCore core(cfg, 0, hierarchy, detector.get(), tact.get());
    if (stream)
        core.bind(*stream);
    else
        core.bind(*trace);

    // The watchdog observes simulated time only. Every step retires an
    // instruction, so the no-retire stall window can never trip in this
    // loop; only the cycle ceiling matters, and checking it every 64
    // steps keeps the poll off the hot path while still bounding the
    // overrun to a handful of instructions (deterministically so).
    Watchdog wd(budget);
    const SamplingConfig &sc = cfg.sampling;
    SampleStats sample;
    CoreStats sampled_core;
    FrontendStats sampled_frontend;
    double ipc_sum = 0, ipc_sq_sum = 0;
    uint64_t measured_start_cycle = 0;

    if (!sc.sampled()) {
        if (budget.limited()) {
            while (core.instrsDone() < warmup && core.step()) {
                if ((core.instrsDone() & 63) == 0)
                    if (auto err = wd.poll(core.now(), core.instrsDone()))
                        return *err;
            }
        } else {
            while (core.instrsDone() < warmup && core.step()) {
            }
        }
        hierarchy.resetStats();
        core.markMeasurementStart();
        measured_start_cycle = core.now();
        if (prof) {
            profile->warmupSec = hostSeconds() - phase_start;
            phase_start = hostSeconds();
        }
        if (budget.limited()) {
            while (core.step()) {
                if ((core.instrsDone() & 63) == 0)
                    if (auto err = wd.poll(core.now(), core.instrsDone()))
                        return *err;
            }
        } else {
            while (core.step()) {
            }
        }
    } else {
        // Sampled mode: functional warming interleaved with detailed
        // windows. The schedule is a pure function of the instruction
        // counter (never wall clock), so results are bitwise-identical
        // at any job count. Warming does not advance core time and the
        // watchdog sees instruction progress, so one poll per phase
        // bounds a cycle-ceiling overrun by a window's worth of steps.
        FastForward ff(0, hierarchy, core.frontend().predictor(),
                       tact.get());
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

        // Warming is memoized through the warm-state store when one is
        // attached: the warmed state at a boundary is a pure function
        // of the consulted key, so a hit restores it and jumps the
        // cursor instead of re-deriving it. Eligibility requires the
        // chunk store (the stream restore re-fetches its ring window
        // through it) and a nonzero warmup (nothing to memoize
        // otherwise); window-boundary keys additionally require a
        // schedule whose inter-window slack amortizes the restore — a
        // window restore costs a near-constant blob parse + O(pages)
        // map adoption, so short-slack schedules re-warm faster than
        // they restore (Config::minWindowGapInstrs). The gate moves
        // only time, never results: restored and re-warmed state are
        // bitwise identical by the store's contract.
        const uint64_t slack =
            sc.intervalInstrs - sc.warmupInstrs - sc.windowInstrs;
        const bool warm_eligible = warmStore_ && stream &&
                                   stream->storeBacked() && warmup > 0;
        const bool window_eligible =
            warm_eligible && slack >= warmStore_->minWindowGap();
        // The state at a window boundary embeds the detailed windows
        // executed before it, which every timing knob reaches — so
        // window keys carry the FULL config digest plus the schedule
        // digest, unlike the timing-blind global key (windowIndex 0).
        const uint64_t full_digest =
            window_eligible ? configDigest(cfg) : 0;
        const uint64_t sched_digest =
            window_eligible ? sampleScheduleDigest(sc) : 0;
        RunProfile unprofiled;
        RunProfile &tally = prof ? *profile : unprofiled;

        // One memoized warming step of @p len instrs from the cursor:
        // with a key, consult it and restore a hit, else warm
        // functionally and publish the landing state under the key
        // (the landing position is the key's boundary by
        // construction). A found snapshot a component rejects is
        // dropped and fails transient — the retry re-warms cleanly.
        auto warm_step = [&](uint64_t len, const WarmStateKey *key,
                             uint64_t &hits, uint64_t &misses,
                             uint64_t &bytes) -> Expected<void> {
            if (key) {
                if (WarmStateStore::SnapshotPtr snap =
                        warmStore_->find(*key)) {
                    uint64_t pos = 0;
                    if (!loadWarmSnapshot(*snap, &pos, *stream, hierarchy,
                                          core.frontend().predictor(),
                                          detector.get(), tact.get(),
                                          ff) ||
                        pos > stream->size()) {
                        // The record passed its checksum but a
                        // component rejected it: a format drift this
                        // build cannot parse.
                        warmStore_->remove(*key);
                        return simError(ErrorCategory::IoTransient,
                                        "warm-state snapshot for '",
                                        workload.name(),
                                        "' failed component restore — "
                                        "dropped; retry re-warms");
                    }
                    core.skipTo(pos);
                    ++hits;
                    bytes += snap->residentBytes();
                    return {};
                }
            }
            core.skipTo(ff.warm(core.tracePos(), len, core.now()));
            if (key) {
                WarmSnapshot snap = makeWarmSnapshot(
                    core.tracePos(), *stream, hierarchy,
                    core.frontend().predictor(), detector.get(),
                    tact.get(), ff);
                ++misses;
                bytes += snap.residentBytes();
                warmStore_->put(*key, std::move(snap));
            }
            return {};
        };

        // Global warmup: consulted under the warm-only digest at
        // windowIndex 0 so pure timing resweeps share it.
        std::optional<WarmStateKey> wkey;
        if (warm_eligible)
            wkey = WarmStateKey{workload.name(), workload.seed(), warmup,
                                instrs + warmup, stream->chunkOps(),
                                warmConfigDigest(cfg)};
        size_t before = core.tracePos();
        if (auto r = warm_step(warmup, wkey ? &*wkey : nullptr,
                               tally.warmStateHits, tally.warmStateMisses,
                               tally.warmStateBytes);
            !r.ok())
            return r.error();
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
        // gap derives bitwise the state the split phases did; it is
        // also exactly the unit the warm-state store memoizes at
        // window-boundary keys, where most warming time goes at the
        // default schedule. A sweep with a warm store fast-forwards
        // snapshot to snapshot and executes only detailed segments.
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
                // The key's boundary is where ff.warm lands: the gap's
                // end, clamped to the trace end.
                const uint64_t target =
                    std::min<uint64_t>(before + gap, stream->size());
                // Second eligibility gate, evaluated at the pre-gap
                // position (which publisher and consumer reach with
                // bitwise-identical state, so the decision is the same
                // on both sides): once the page map outgrows the cap,
                // the O(pages) adoption in restorePages() dominates
                // the restore and re-warming is cheaper — page-heavy
                // streaming workloads also warm fastest per
                // instruction, compounding the loss.
                std::optional<WarmStateKey> gkey;
                if (window_eligible && target > before &&
                    (warmStore_->maxWindowPages() == 0 ||
                     stream->mem()->pagesAllocated() <=
                         warmStore_->maxWindowPages()))
                    gkey = WarmStateKey{workload.name(), workload.seed(),
                                        target,         instrs + warmup,
                                        stream->chunkOps(), full_digest,
                                        period,         sched_digest};
                if (auto r = warm_step(gap, gkey ? &*gkey : nullptr,
                                       tally.warmStateWindowHits,
                                       tally.warmStateWindowMisses,
                                       tally.warmStateWindowBytes);
                    !r.ok())
                    return r.error();
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
    r.config = cfg.name;
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
        if (ddg)
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
    // Sampled runs leak the per-window warmup cycles into core.now();
    // the summed window cycles are the honest measured-time base.
    uint64_t cycles = sc.sampled() ? r.core.cycles
                                   : core.now() - measured_start_cycle;
    r.energy = computeEnergy(EnergyParams{}, cfg, r.core.instrs, cycles,
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
