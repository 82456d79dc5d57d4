/**
 * @file
 * The traced run: per-layer metrics of the simulator, measured from
 * outside by timing calls into each layer's public functions on the
 * kernels of the workload being traced (profileSet()).
 *
 * Three kinds of measurement:
 *   - in-situ: the detailed path composed from public parts
 *     (TraceStream, CacheHierarchy, DdgCriticalityDetector, Tact,
 *     OooCore), with a timing CriticalityDetector around the real one.
 *     Its SimResult must be byte-identical to Simulator::run's;
 *   - replay: a cell's op stream fed through one layer in isolation.
 *     The clock is synthetic and blocking: one cycle per op plus each
 *     access's returned latency, so no queue builds up behind a replay
 *     that issues faster than the modelled memory could serve;
 *   - count: deterministic SimResult and store counters.
 *
 * The "*_pki" counts come from detailed cells only: in sampled mode the
 * hierarchy counters include every window's detailed warmup, so they
 * do not share a denominator with the core's.
 */

#include <algorithm>
#include <chrono>

#include "bench.hh"
#include "cache/hierarchy.hh"
#include "common/state_io.hh"
#include "core/ooo_core.hh"
#include "criticality/ddg.hh"
#include "dram/dram.hh"
#include "power/power_model.hh"
#include "sim/fast_forward.hh"
#include "sim/warm_state.hh"
#include "tact/tact.hh"
#include "trace/chunk_store.hh"
#include "trace/trace_stream.hh"

namespace e2e
{

using namespace catchsim;

namespace
{

using Clock = std::chrono::steady_clock;

/** Cost of one steady_clock::now() pair, subtracted from sampled spans. */
double
timerOverheadNs()
{
    std::vector<double> d;
    for (int i = 0; i < 1001; ++i) {
        const auto a = Clock::now();
        const auto b = Clock::now();
        d.push_back(std::chrono::duration<double, std::nano>(b - a).count());
    }
    return median(d);
}

/**
 * Times a sample of onRetire calls into the real detector. Every 61st
 * call is timed: a prime stride, because DDG walks fire every 2 x ROB
 * retires and a power-of-two stride would alias with them.
 */
class TimingDetector final : public CriticalityDetector
{
  public:
    explicit TimingDetector(CriticalityDetector &inner) : inner_(inner) {}

    void
    onRetire(const RetireInfo &ri) override
    {
        if (++calls_ % kStride != 0) {
            inner_.onRetire(ri);
            return;
        }
        const auto t0 = Clock::now();
        inner_.onRetire(ri);
        sampledNs_ +=
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        ++samples_;
    }

    CriticalTable &table() override { return inner_.table(); }
    const CriticalTable &table() const override { return inner_.table(); }

    /** Mean ns per onRetire call, timer overhead removed. */
    double
    meanNs(double overhead_ns) const
    {
        return samples_ ? std::max(0.0, sampledNs_ / samples_ - overhead_ns)
                        : 0.0;
    }

  private:
    static constexpr uint64_t kStride = 61;
    CriticalityDetector &inner_;
    uint64_t calls_ = 0;
    uint64_t samples_ = 0;
    double sampledNs_ = 0;
};

struct InSitu
{
    SimResult result;
    double runSec = 0;  ///< construction through the last step
    double stepSec = 0; ///< OooCore::step loops only
    double retireNs = 0; ///< per onRetire call (CATCH cells)
};

/**
 * Simulator::run's detailed path, rebuilt from public parts. Supports
 * the configurations the benchmark uses: no oracle knobs, DDG detector.
 */
InSitu
composeDetailed(const Kernel &k, const SimConfig &config, uint64_t instrs,
                uint64_t warmup, double overhead_ns)
{
    InSitu out;
    SimConfig cfg = config;
    cfg.numCores = 1;
    auto wl = k.make();
    const double t0 = now();
    TraceStream stream(*wl, instrs + warmup);
    CacheHierarchy hierarchy(cfg);
    std::unique_ptr<DdgCriticalityDetector> ddg;
    std::unique_ptr<TimingDetector> det;
    if (cfg.criticality.enabled) {
        ddg = std::make_unique<DdgCriticalityDetector>(
            cfg.criticality, cfg.robSize, cfg.renameLat, cfg.redirectLat,
            cfg.width);
        det = std::make_unique<TimingDetector>(*ddg);
        hierarchy.setCriticalQuery(
            [&det](CoreId, Addr pc) { return det->isCritical(pc); });
    }
    std::unique_ptr<Tact> tact;
    if (cfg.tact.any())
        tact = std::make_unique<Tact>(
            cfg.tact, 0, hierarchy,
            [&det](Addr pc) { return det->isCritical(pc); },
            stream.mem().get());
    OooCore core(cfg, 0, hierarchy, det.get(), tact.get());
    core.bind(stream);

    const double s0 = now();
    while (core.instrsDone() < warmup && core.step()) {
    }
    out.stepSec = now() - s0;
    hierarchy.resetStats();
    core.markMeasurementStart();
    const Cycle start = core.now();
    const double s1 = now();
    while (core.step()) {
    }
    const double end = now();
    out.stepSec += end - s1;
    out.runSec = end - t0;
    if (det)
        out.retireNs = det->meanNs(overhead_ns);

    SimResult &r = out.result;
    r.workload = wl->name();
    r.config = cfg.name;
    r.category = wl->category();
    r.core = core.stats();
    r.ipc = r.core.ipc();
    r.hier = hierarchy.stats();
    r.l1d = hierarchy.l1dStats(0);
    r.l1i = hierarchy.l1iStats(0);
    r.hasL2 = hierarchy.hasL2();
    if (r.hasL2)
        r.l2 = *hierarchy.l2Stats(0);
    r.llc = hierarchy.llcStats();
    r.dram = hierarchy.dramStats();
    r.frontend = core.frontend().stats();
    if (ddg) {
        r.ddg = ddg->stats();
        r.criticalTable = ddg->table().stats();
        r.activeCriticalPcs = ddg->table().activeCount();
    }
    if (tact)
        r.tact = tact->stats();
    const Histogram &tl = hierarchy.tactTimeliness();
    r.timelinessAtLeast80 = tl.fractionAtLeast(80);
    r.timelinessAtLeast10 = tl.fractionAtLeast(10);
    const uint64_t located = r.hier.tactPfFromL2 + r.hier.tactPfFromLlc +
                             r.hier.tactPfFromMem;
    r.tactFromLlcFraction =
        located ? static_cast<double>(r.hier.tactPfFromLlc) / located : 0.0;
    r.energy = computeEnergy(
        EnergyParams{}, cfg, r.core.instrs, core.now() - start,
        r.l1d.readOps + r.l1d.writeOps + r.l1i.readOps + r.l1i.writeOps,
        r.hasL2 ? r.l2.readOps + r.l2.writeOps : 0,
        r.llc.readOps + r.llc.writeOps, r.hier.ringTransfers, r.dram);
    return out;
}

/** Seconds and operation count of one replayed layer, summed over cells. */
struct Acc
{
    double sec = 0;
    uint64_t ops = 0;

    void
    add(double s, uint64_t n)
    {
        sec += s;
        ops += n;
    }

    double nsPerOp() const { return ops ? sec * 1e9 / ops : 0.0; }
};

struct Replays
{
    Acc demand, code, warm, dram, ff;
};

/** Criticality detector plus TACT for a replay, when @p cfg has them. */
struct CatchParts
{
    std::unique_ptr<DdgCriticalityDetector> det;
    std::unique_ptr<Tact> tact;

    CatchParts(const SimConfig &cfg, CacheHierarchy &h,
               const FunctionalMemory *mem)
    {
        if (!cfg.criticality.enabled)
            return;
        det = std::make_unique<DdgCriticalityDetector>(
            cfg.criticality, cfg.robSize, cfg.renameLat, cfg.redirectLat,
            cfg.width);
        DdgCriticalityDetector *d = det.get();
        h.setCriticalQuery([d](CoreId, Addr pc) { return d->isCritical(pc); });
        if (cfg.tact.any())
            tact = std::make_unique<Tact>(
                cfg.tact, 0, h, [d](Addr pc) { return d->isCritical(pc); },
                mem);
    }
};

void
replayLayers(const Trace &tr, const SimConfig &cfg, Replays &acc)
{
    const std::vector<MicroOp> &ops = tr.ops;
    {
        // Demand loads and store commits; loads served from memory are
        // kept for the DRAM replay.
        CacheHierarchy h(cfg);
        std::vector<Addr> from_mem;
        from_mem.reserve(ops.size() / 4);
        uint64_t n = 0;
        Cycle clock = 0;
        const double t0 = now();
        for (const MicroOp &op : ops) {
            ++clock;
            if (op.isLoad()) {
                const MemResult r = h.load(0, op.pc, op.memAddr, clock);
                if (r.served == Level::Mem)
                    from_mem.push_back(op.memAddr);
                clock += r.latency;
                ++n;
            } else if (op.isStore()) {
                h.storeCommit(0, op.memAddr, clock);
                ++n;
            }
        }
        acc.demand.add(now() - t0, n);

        Dram dram(cfg.dram);
        Cycle at = 0;
        const double t1 = now();
        for (Addr addr : from_mem)
            at += dram.read(addr, at);
        acc.dram.add(now() - t1, from_mem.size());
    }
    {
        CacheHierarchy h(cfg);
        Addr last = ~Addr(0);
        uint64_t n = 0;
        Cycle clock = 0;
        const double t0 = now();
        for (const MicroOp &op : ops) {
            ++clock;
            const Addr line = lineAddr(op.pc);
            if (line != last) {
                clock += h.codeFetch(0, line, clock).latency;
                last = line;
                ++n;
            }
        }
        acc.code.add(now() - t0, n);
    }
    {
        using WK = CacheHierarchy::WarmKind;
        CacheHierarchy h(cfg);
        Addr last = ~Addr(0);
        uint64_t n = 0;
        const double t0 = now();
        for (const MicroOp &op : ops) {
            const Addr line = lineAddr(op.pc);
            if (line != last) {
                h.warmAccess(0, op.pc, op.pc, 0, WK::Code);
                last = line;
                ++n;
            }
            if (op.isLoad() || op.isStore()) {
                h.warmAccess(0, op.pc, op.memAddr, 0,
                             op.isLoad() ? WK::Load : WK::Store);
                ++n;
            }
        }
        acc.warm.add(now() - t0, n);
    }
    {
        CacheHierarchy h(cfg);
        BranchPredictor bp;
        CatchParts parts(cfg, h, tr.mem.get());
        FastForward ff(0, h, bp, parts.tact.get());
        ff.bind(tr);
        const double t0 = now();
        ff.warm(0, ops.size(), 0);
        acc.ff.add(now() - t0, ops.size());
    }
}

/** Every warming-visible component over a store-backed stream: what a
 *  warmed-state snapshot captures and restores. */
struct WarmParts
{
    std::unique_ptr<Workload> wl;
    TraceStream stream;
    CacheHierarchy hierarchy;
    BranchPredictor predictor;
    CatchParts catchParts;
    FastForward ff;

    WarmParts(const Kernel &k, const SimConfig &cfg, uint64_t span,
              ChunkStore &chunks)
        : wl(k.make()),
          stream(*wl, span, TraceStream::kDefaultChunkOps,
                 std::function<double()>(), &chunks),
          hierarchy(cfg), catchParts(cfg, hierarchy, stream.mem().get()),
          ff(0, hierarchy, predictor, catchParts.tact.get())
    {
        ff.bind(stream);
    }

    /** The component sequence of Simulator's warmed-state snapshots. */
    std::string
    save() const
    {
        StateSink sink;
        stream.saveWarmState(sink);
        hierarchy.saveWarmState(sink);
        predictor.saveWarmState(sink);
        sink.boolean(catchParts.det != nullptr);
        if (catchParts.det)
            catchParts.det->table().saveWarmState(sink);
        sink.boolean(catchParts.tact != nullptr);
        if (catchParts.tact)
            catchParts.tact->saveWarmState(sink);
        ff.saveWarmState(sink);
        return sink.take();
    }

    bool
    load(const WarmSnapshot &snap)
    {
        StateSource src(snap.bytes);
        if (!stream.loadWarmState(src, snap.pages) ||
            !hierarchy.loadWarmState(src) || !predictor.loadWarmState(src))
            return false;
        if (src.boolean() != (catchParts.det != nullptr))
            return false;
        if (catchParts.det && !catchParts.det->table().loadWarmState(src))
            return false;
        if (src.boolean() != (catchParts.tact != nullptr))
            return false;
        if (catchParts.tact && !catchParts.tact->loadWarmState(src))
            return false;
        return ff.loadWarmState(src) && src.exhausted();
    }
};

struct SnapshotTimes
{
    Acc save, restore, put, find, restorePages;
    double bytes = 0;
    double pages = 0;
    uint64_t cells = 0;
};

/** Warms one cell's global warmup, then saves, stores, finds and
 *  restores the snapshot; save -> load -> save must be byte-identical. */
void
snapshotCycle(const Kernel &k, const SimConfig &cfg, uint64_t instrs,
              uint64_t warmup, SnapshotTimes &acc, Report &rep)
{
    ChunkStore chunks;
    const uint64_t span = instrs + warmup;
    WarmParts a(k, cfg, span, chunks);
    a.ff.warm(0, warmup, 0);

    double t0 = now();
    WarmSnapshot snap{a.save(), a.stream.mem()->snapshotPages()};
    acc.save.add(now() - t0, 1);
    acc.bytes += static_cast<double>(snap.residentBytes());
    acc.pages += static_cast<double>(snap.pages.size());
    ++acc.cells;

    WarmStateStore store;
    const WarmStateKey key{k.name, a.wl->seed(), warmup, span,
                           a.stream.chunkOps(), warmConfigDigest(cfg)};
    WarmSnapshot copy = snap;
    t0 = now();
    store.put(key, std::move(copy));
    acc.put.add(now() - t0, 1);
    t0 = now();
    WarmStateStore::SnapshotPtr found = store.find(key);
    acc.find.add(now() - t0, 1);

    WarmParts b(k, cfg, span, chunks);
    t0 = now();
    const bool loaded = found && b.load(*found);
    acc.restore.add(now() - t0, 1);

    FunctionalMemory mem;
    t0 = now();
    mem.restorePages(snap.pages);
    acc.restorePages.add(now() - t0, 1);

    rep.ops(1);
    if (!loaded || b.save() != snap.bytes) {
        rep.ops(0, 1);
        rep.failure("warmed-state save -> load -> save of " + k.name +
                    " on " + cfg.name + " is not byte-identical");
    }
}

/** Chunk replay of every kernel: constructor, generation, then a
 *  populate pass and a consuming pass against one default store. */
void
traceLayer(const ProfileSet &ps, Report &rep)
{
    const uint64_t span = ps.instrs + ps.warmup;
    auto drain = [span](TraceStream &s) {
        for (size_t pos = 0; pos < span; pos += s.chunkOps())
            s.ensure(pos);
        s.ensure(span - 1);
    };
    const uint64_t primed =
        std::min<uint64_t>(span, 2 * TraceStream::kDefaultChunkOps);
    const uint64_t streamed = std::max<uint64_t>(1, span - primed);

    Acc setup, gen, hit;
    for (const Kernel &k : ps.kernels) {
        auto wl = k.make();
        const double t0 = now();
        TraceStream s(*wl, span);
        const double t1 = now();
        drain(s);
        setup.add(t1 - t0, 1);
        gen.add(now() - t1, streamed);
    }
    ChunkStore chunks;
    for (const Kernel &k : ps.kernels) {
        auto wl = k.make();
        TraceStream s(*wl, span, TraceStream::kDefaultChunkOps,
                      std::function<double()>(), &chunks);
        drain(s);
    }
    uint64_t hits = 0, misses = 0;
    for (const Kernel &k : ps.kernels) {
        auto wl = k.make();
        TraceStream s(*wl, span, TraceStream::kDefaultChunkOps,
                      std::function<double()>(), &chunks);
        const double t0 = now();
        drain(s);
        hit.add(now() - t0, streamed);
        hits += s.storeHits();
        misses += s.storeMisses();
    }
    rep.add("trace.setup_ms", "ms", Kind::Time,
            {setup.sec * 1e3 / std::max<uint64_t>(1, setup.ops)});
    rep.add("trace.gen_ns_per_op", "ns/op", Kind::Time, {gen.nsPerOp()});
    rep.add("trace.hit_ns_per_op", "ns/op", Kind::Time, {hit.nsPerOp()});
    rep.count("trace.chunk_hit_frac", "fraction",
              hits + misses ? static_cast<double>(hits) / (hits + misses)
                            : 0.0);
    rep.count("trace.chunk_evictions", "count",
              static_cast<double>(chunks.stats().evictions));
}

/** Sums of the deterministic counters over a set of detailed results. */
struct Counts
{
    double instrs = 0, cycles = 0, mispredicts = 0;
    double l1dMiss = 0, l1iMiss = 0, l2Miss = 0, llcMiss = 0;
    double loads = 0, loadLat = 0;
    double dramReads = 0, dramWrites = 0, rowHits = 0, rowAccesses = 0,
           bankWait = 0;
    double stridePf = 0, streamPf = 0;
    // CATCH cells only.
    double catchInstrs = 0, walks = 0, found = 0, recorded = 0,
           tableEvictions = 0, activePcs = 0, catchCells = 0;
    double cross = 0, deep = 0, feeder = 0, code = 0;
    double tactPf = 0, useful = 0, fromLlc = 0, located = 0, timely = 0;

    void
    add(const SimResult &r, bool catch_cell)
    {
        instrs += r.core.instrs;
        cycles += r.core.cycles;
        mispredicts += r.core.branch.mispredicts;
        l1dMiss += r.l1d.demandAccesses - r.l1d.demandHits;
        l1iMiss += r.l1i.demandAccesses - r.l1i.demandHits;
        if (r.hasL2)
            l2Miss += r.l2.demandAccesses - r.l2.demandHits;
        llcMiss += r.llc.demandAccesses - r.llc.demandHits;
        loads += r.hier.loads;
        loadLat += r.hier.totalLoadLatency;
        dramReads += r.dram.reads;
        dramWrites += r.dram.writes;
        rowHits += r.dram.rowHits;
        rowAccesses += r.dram.rowHits + r.dram.rowMisses;
        bankWait += r.dram.totalBankWait;
        stridePf += r.hier.stridePfIssued;
        streamPf += r.hier.streamPfIssued;
        if (!catch_cell)
            return;
        catchInstrs += r.core.instrs;
        walks += r.ddg.walks;
        found += r.ddg.criticalLoadsFound;
        recorded += r.ddg.recorded;
        tableEvictions += r.criticalTable.evictions;
        activePcs += r.activeCriticalPcs;
        ++catchCells;
        cross += r.tact.crossIssued;
        deep += r.tact.deepIssued;
        feeder += r.tact.feederIssued;
        code += r.tact.codeLines;
        tactPf += r.hier.tactPrefetches;
        useful += r.hier.tactUsefulHits;
        fromLlc += r.hier.tactPfFromLlc;
        located += r.hier.tactPfFromL2 + r.hier.tactPfFromLlc +
                   r.hier.tactPfFromMem;
        timely += r.timelinessAtLeast80 * r.hier.tactUsefulHits;
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

void
reportCounts(const Counts &c, Report &rep)
{
    auto pki = [&c](double n) { return ratio(n * 1000.0, c.instrs); };
    auto cpki = [&c](double n) { return ratio(n * 1000.0, c.catchInstrs); };
    rep.count("core.ipc", "instr/cycle", ratio(c.instrs, c.cycles));
    rep.count("core.mispredict_pki", "1/kinstr", pki(c.mispredicts));
    rep.count("cache.l1d_mpki", "1/kinstr", pki(c.l1dMiss));
    rep.count("cache.l1i_mpki", "1/kinstr", pki(c.l1iMiss));
    rep.count("cache.l2_mpki", "1/kinstr", pki(c.l2Miss));
    rep.count("cache.llc_mpki", "1/kinstr", pki(c.llcMiss));
    rep.count("cache.avg_load_lat_cyc", "cycles", ratio(c.loadLat, c.loads));
    rep.count("dram.reads_pki", "1/kinstr", pki(c.dramReads));
    rep.count("dram.writes_pki", "1/kinstr", pki(c.dramWrites));
    rep.count("dram.row_hit_frac", "fraction", ratio(c.rowHits, c.rowAccesses));
    rep.count("dram.bank_wait_cyc", "cycles", ratio(c.bankWait, c.dramReads));
    rep.count("prefetch.stride_pki", "1/kinstr", pki(c.stridePf));
    rep.count("prefetch.stream_pki", "1/kinstr", pki(c.streamPf));
    rep.count("criticality.walks_pki", "1/kinstr", cpki(c.walks));
    rep.count("criticality.recorded_frac", "fraction",
              ratio(c.recorded, c.found));
    rep.count("criticality.table_evictions_pki", "1/kinstr",
              cpki(c.tableEvictions));
    rep.count("criticality.active_pcs", "count",
              ratio(c.activePcs, c.catchCells));
    rep.count("tact.issued_pki.cross", "1/kinstr", cpki(c.cross));
    rep.count("tact.issued_pki.deep", "1/kinstr", cpki(c.deep));
    rep.count("tact.issued_pki.feeder", "1/kinstr", cpki(c.feeder));
    rep.count("tact.issued_pki.code", "1/kinstr", cpki(c.code));
    rep.count("tact.useful_frac", "fraction", ratio(c.useful, c.tactPf));
    rep.count("tact.llc_sourced_frac", "fraction",
              ratio(c.fromLlc, c.located));
    rep.count("tact.timely80_frac", "fraction", ratio(c.timely, c.useful));
}

/** A sampled LLC+0 then LLC+6 sweep of the profiled kernels sharing one
 *  default chunk store and the sampled-sweep workload's warmed-state
 *  store: how much of the second sweep the warm-state store serves. */
void
warmStateSweep(const ProfileSet &ps, Report &rep)
{
    ChunkStore chunks;
    const auto warm = sweepWarmStore();
    RunProfile second;
    uint64_t runs = 0, failed = 0;
    for (uint32_t add : {0u, 6u}) {
        for (SimConfig cfg : {ps.base, ps.catchCfg}) {
            cfg.sampling.mode = SampleMode::Sampled;
            cfg.oracle.latAddLlc = add;
            for (const Kernel &k : ps.kernels) {
                RunProfile prof;
                auto r = runCell(k, cfg, ps.instrs, ps.warmup, &chunks,
                                 warm.get(), &prof);
                ++runs;
                if (!r.ok()) {
                    ++failed;
                    rep.failure("sampled " + k.name + ": " +
                                r.error().message);
                }
                if (add == 0)
                    continue;
                second.warmStateHits += prof.warmStateHits;
                second.warmStateMisses += prof.warmStateMisses;
                second.warmStateWindowHits += prof.warmStateWindowHits;
                second.warmStateWindowMisses += prof.warmStateWindowMisses;
            }
        }
    }
    rep.ops(runs, failed);
    rep.count("sim.warm_state.hit_frac", "fraction",
              ratio(second.warmStateHits,
                    second.warmStateHits + second.warmStateMisses));
    rep.count("sim.warm_state.evictions", "count",
              static_cast<double>(warm->stats().evictions));
    const uint64_t consults =
        second.warmStateWindowHits + second.warmStateWindowMisses;
    rep.count("sim.warm_state.window_consults", "count",
              static_cast<double>(consults));
    if (consults)
        rep.count("sim.warm_state.window_hit_frac", "fraction",
                  ratio(second.warmStateWindowHits, consults));
    else
        rep.note("sim.warm_state.window_hit_frac: 0/0 — no window-boundary "
                 "consults at the default sampling schedule");
}

/** One full per-layer profile of the profiled kernels. */
void
profileRound(const ProfileSet &ps, Report &rep, double overhead_ns)
{
    traceLayer(ps, rep);

    Replays rp;
    for (const Kernel &k : ps.kernels) {
        const Trace tr = k.make()->generate(ps.instrs + ps.warmup);
        for (const SimConfig &cfg : {ps.base, ps.catchCfg})
            replayLayers(tr, cfg, rp);
    }
    rep.add("cache.demand_ns", "ns/access", Kind::Time, {rp.demand.nsPerOp()});
    rep.add("cache.code_ns", "ns/fetch", Kind::Time, {rp.code.nsPerOp()});
    rep.add("cache.warm_ns", "ns/access", Kind::Time, {rp.warm.nsPerOp()});
    rep.add("dram.read_ns", "ns/read", Kind::Time, {rp.dram.nsPerOp()});
    rep.add("sim.ff.warm_ns_per_op", "ns/op", Kind::Time, {rp.ff.nsPerOp()});

    // In-situ composition against Simulator::run on every cell.
    Counts counts;
    Acc step[2], retire, in_situ, reference;
    uint64_t digest = 0xcbf29ce484222325ULL;
    const SimConfig configs[2] = {ps.base, ps.catchCfg};
    for (int c = 0; c < 2; ++c) {
        for (const Kernel &k : ps.kernels) {
            InSitu is = composeDetailed(k, configs[c], ps.instrs, ps.warmup,
                                        overhead_ns);
            const double t0 = now();
            auto ref = runCell(k, configs[c], ps.instrs, ps.warmup);
            reference.add(now() - t0, 1);
            in_situ.add(is.runSec, 1);
            step[c].add(is.stepSec, ps.instrs + ps.warmup);
            if (configs[c].criticality.enabled)
                retire.add(is.retireNs * 1e-9 * (ps.instrs + ps.warmup),
                           ps.instrs + ps.warmup);
            const std::string json = is.result.toJson();
            std::string why = checkResult(is.result, ps.instrs);
            if (why.empty() && (!ref.ok() || ref.value().toJson() != json))
                why = "in-situ composition differs from Simulator::run";
            rep.ops(1, why.empty() ? 0 : 1);
            if (!why.empty())
                rep.failure(k.name + " on " + configs[c].name + ": " + why);
            counts.add(is.result, configs[c].criticality.enabled);
            digest = fnv1a(json, digest);
        }
    }
    const double skx = step[0].nsPerOp(), cat = step[1].nsPerOp();
    const double on_retire = retire.nsPerOp();
    rep.add("core.step_ns_per_instr.skx", "ns/instr", Kind::Time, {skx});
    rep.add("core.step_ns_per_instr.catch", "ns/instr", Kind::Time, {cat});
    rep.add("core.self_ns_per_instr", "ns/instr", Kind::Time,
            {cat - on_retire});
    rep.add("criticality.on_retire_ns_per_instr", "ns/instr", Kind::Time,
            {on_retire});
    rep.add("tact.catch_overhead_ns_per_instr", "ns/instr", Kind::Time,
            {cat - skx});
    rep.count("bench.trace_overhead_pct", "%",
              (ratio(in_situ.sec, reference.sec) - 1.0) * 100.0);
    rep.digest(digest);
    reportCounts(counts, rep);

    // PERFORMANCE.md's sampled-mode ceiling 1/(f/r_det + (1-f)/r_warm),
    // as a speed-up over detailed: f is the detailed share of a period.
    const SamplingConfig sc;
    const double f = static_cast<double>(sc.warmupInstrs + sc.windowInstrs) /
                     static_cast<double>(sc.intervalInstrs);
    const double det_ns = (step[0].sec + step[1].sec) * 1e9 /
                          std::max<uint64_t>(1, step[0].ops + step[1].ops);
    rep.count("sim.ff.ceiling_x", "x",
              ratio(det_ns, f * det_ns + (1 - f) * rp.ff.nsPerOp()));

    SnapshotTimes snaps;
    for (const SimConfig &cfg : configs)
        for (const Kernel &k : ps.kernels)
            snapshotCycle(k, cfg, ps.instrs, ps.warmup, snaps, rep);
    const double cells = std::max<double>(1, snaps.cells);
    rep.add("sim.warm_state.save_ms", "ms", Kind::Time,
            {snaps.save.sec * 1e3 / cells});
    rep.add("sim.warm_state.restore_ms", "ms", Kind::Time,
            {snaps.restore.sec * 1e3 / cells});
    rep.add("sim.warm_state.put_us", "us", Kind::Time,
            {snaps.put.sec * 1e6 / cells});
    rep.add("sim.warm_state.find_us", "us", Kind::Time,
            {snaps.find.sec * 1e6 / cells});
    rep.count("sim.warm_state.snapshot_mb", "MB",
              snaps.bytes / cells / (1024.0 * 1024.0));
    rep.count("mem.pages", "pages", snaps.pages / cells);
    rep.add("mem.restore_pages_us", "us", Kind::Time,
            {snaps.restorePages.sec * 1e6 / cells});

    warmStateSweep(ps, rep);
}

} // namespace

void
runLayers(const Options &o, Report &rep, Calibrator &cal)
{
    const ProfileSet ps = profileSet(o);
    const double overhead_ns = timerOverheadNs();
    std::string names;
    for (const Kernel &k : ps.kernels)
        names += (names.empty() ? "" : ", ") + k.name;
    rep.note("profiled kernels: " + names + " on " + ps.base.name +
             " (.skx) and " + ps.catchCfg.name + " (.catch), " +
             std::to_string(ps.instrs) + " + " + std::to_string(ps.warmup) +
             " instrs");

    // Rounds repeat while another one still fits in o.seconds; times
    // report the median over rounds, counts repeat exactly.
    cal.sample();
    const double start = now();
    unsigned rounds = 0;
    double last = 0;
    do {
        const double t0 = now();
        profileRound(ps, rep, overhead_ns);
        last = now() - t0;
        ++rounds;
        cal.sample();
    } while (now() - start + last <= o.seconds);
    rep.note("profile rounds: " + std::to_string(rounds));

    ProfiledPass pp = profiledPass(o, rep);
    cal.sample();
    rep.ops(pp.ops, pp.failed);
    double sum = 0, longest = 0;
    for (double s : pp.opSeconds) {
        sum += s;
        longest = std::max(longest, s);
    }
    rep.count("sim.runner.pool_util", "fraction",
              ratio(sum, pp.jobs * pp.wallSeconds));
    rep.count("sim.runner.makespan_ratio", "x",
              ratio(pp.wallSeconds, std::max(sum / pp.jobs, longest)));
    const double exponent =
        pp.opThreads > 1 ? Report::kParallelExponent : 1.0;
    // The longest run, not a p95: with 10-84 runs a pass has too few
    // samples beyond any tail percentile.
    rep.add("sim.runner.run_s_p50", "s", Kind::Time, {median(pp.opSeconds)},
            exponent);
    rep.add("sim.runner.run_s_max", "s", Kind::Time, {longest}, exponent);
    rep.count("sim.result.catch_gain_pct", "%", pp.catchGain * 100.0);
    for (const std::string &line : pp.extras)
        rep.note(line);
}

} // namespace e2e
