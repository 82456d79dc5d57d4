/**
 * @file
 * JSON export of suite results: SimResult::toJson()/fromJson() plus the
 * suite-level writers the bench binaries and the CLI use to emit
 * machine-readable per-workload stats next to their stdout tables
 * (CATCH_JSON env knob).
 *
 * toJson() covers every counter SimResult carries and fromJson() parses
 * it back bitwise-exactly (exact u64, %.17g doubles); result-store
 * replays rest on this round trip. The RunOutcome body codec the worker
 * protocol, the result store and the suite export share lives here
 * too. Suite documents are written atomically: the full document goes
 * to <path>.tmp, which is renamed over <path> only after a verified
 * complete write — a crashed export never leaves a half-written file
 * behind.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/fault_inject.hh"
#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"

namespace catchsim
{

namespace
{

void
cacheJson(JsonWriter &w, const char *name, const CacheStats &s)
{
    w.object(name);
    w.field("accesses", s.demandAccesses);
    w.field("hits", s.demandHits);
    w.field("hit_rate", s.hitRate());
    w.field("fills", s.fills);
    w.field("evictions", s.evictions);
    w.field("dirty_evictions", s.dirtyEvictions);
    w.field("invalidations", s.invalidations);
    w.field("useless_prefetch_evictions", s.uselessPrefetchEvictions);
    w.field("read_ops", s.readOps);
    w.field("write_ops", s.writeOps);
    w.close();
}

void
cacheFromJson(const JsonReader &r, CacheStats &s)
{
    r.u64("accesses", s.demandAccesses);
    r.u64("hits", s.demandHits);
    r.u64("fills", s.fills);
    r.u64("evictions", s.evictions);
    r.u64("dirty_evictions", s.dirtyEvictions);
    r.u64("invalidations", s.invalidations);
    r.u64("useless_prefetch_evictions", s.uselessPrefetchEvictions);
    r.u64("read_ops", s.readOps);
    r.u64("write_ops", s.writeOps);
}

} // namespace

std::string
SimResult::toJson() const
{
    JsonWriter w;
    w.open();
    w.field("workload", workload);
    w.field("config", config);
    w.field("category", std::string(categoryName(category)));
    w.field("ipc", ipc);

    w.object("core");
    w.field("instrs", core.instrs);
    w.field("cycles", core.cycles);
    w.field("loads", core.loads);
    w.field("stores", core.stores);
    w.field("forwarded_loads", core.forwardedLoads);
    w.field("branches", core.branch.branches);
    w.field("branch_mispredicts", core.branch.mispredicts);
    w.field("branch_direction_wrong", core.branch.directionWrong);
    w.field("branch_target_wrong", core.branch.targetWrong);
    w.close();

    w.object("hierarchy");
    w.field("loads", hier.loads);
    w.field("load_hits_l1", hier.loadHits[0]);
    w.field("load_hits_l2", hier.loadHits[1]);
    w.field("load_hits_llc", hier.loadHits[2]);
    w.field("load_hits_mem", hier.loadHits[3]);
    w.field("total_load_latency", hier.totalLoadLatency);
    w.field("total_l1_hit_latency", hier.totalL1HitLatency);
    w.fieldArray("l1_hits_by_source", hier.l1HitsBySource, 7);
    w.fieldArray("l1_hit_wait_by_source", hier.l1HitWaitBySource, 7);
    w.field("store_accesses", hier.storeAccesses);
    w.field("store_l1_misses", hier.storeL1Misses);
    w.fieldArray("rfo_hits", hier.rfoHits, 4);
    w.field("code_fetches", hier.codeFetches);
    w.fieldArray("code_hits", hier.codeHits, 4);
    w.field("demoted_loads", hier.demotedLoads);
    w.field("oracle_converted", hier.oracleConverted);
    w.field("ring_transfers", hier.ringTransfers);
    w.field("mem_transfers", hier.memTransfers);
    w.field("stride_pf_issued", hier.stridePfIssued);
    w.field("stream_pf_issued", hier.streamPfIssued);
    w.field("code_pf_issued", hier.codePfIssued);
    w.close();

    cacheJson(w, "l1d", l1d);
    cacheJson(w, "l1i", l1i);
    if (hasL2)
        cacheJson(w, "l2", l2);
    cacheJson(w, "llc", llc);

    w.object("dram");
    w.field("reads", dram.reads);
    w.field("writes", dram.writes);
    w.field("activates", dram.activates);
    w.field("row_hits", dram.rowHits);
    w.field("row_misses", dram.rowMisses);
    w.field("write_drains", dram.writeDrains);
    w.field("refresh_stalls", dram.refreshStalls);
    w.field("total_read_latency", dram.totalReadLatency);
    w.field("total_bank_wait", dram.totalBankWait);
    w.field("total_bus_wait", dram.totalBusWait);
    w.field("avg_read_latency", dram.avgReadLatency());
    w.close();

    w.object("frontend");
    w.field("line_fetches", frontend.lineFetches);
    w.field("code_stall_cycles", frontend.codeStallCycles);
    w.field("redirects", frontend.redirects);
    w.close();

    w.object("criticality");
    w.field("ddg_retired", ddg.retired);
    w.field("ddg_walks", ddg.walks);
    w.field("critical_loads_found", ddg.criticalLoadsFound);
    w.field("ddg_recorded", ddg.recorded);
    w.field("ddg_overflows", ddg.overflows);
    w.field("table_recordings", criticalTable.recordings);
    w.field("table_insertions", criticalTable.insertions);
    w.field("table_evictions", criticalTable.evictions);
    w.field("table_confidence_resets", criticalTable.confidenceResets);
    w.field("table_queries", criticalTable.queries);
    w.field("table_query_hits", criticalTable.queryHits);
    w.field("active_critical_pcs", uint64_t(activeCriticalPcs));
    w.close();

    w.object("tact");
    w.field("prefetches", hier.tactPrefetches);
    w.field("cross_issued", tact.crossIssued);
    w.field("deep_issued", tact.deepIssued);
    w.field("feeder_issued", tact.feederIssued);
    w.field("feeder_runaheads", tact.feederRunaheads);
    w.field("code_stalls", tact.codeStalls);
    w.field("code_lines", tact.codeLines);
    w.field("useful_hits", hier.tactUsefulHits);
    w.field("pf_from_l2", hier.tactPfFromL2);
    w.field("pf_from_llc", hier.tactPfFromLlc);
    w.field("pf_from_mem", hier.tactPfFromMem);
    w.field("pf_dropped", hier.tactPfDropped);
    w.field("pf_not_on_die", hier.tactPfNotOnDie);
    w.field("from_llc_fraction", tactFromLlcFraction);
    w.field("timeliness_ge80", timelinessAtLeast80);
    w.field("timeliness_ge10", timelinessAtLeast10);
    w.close();

    w.object("energy_mj");
    w.field("core_dynamic", energy.coreDynamic);
    w.field("cache_dynamic", energy.cacheDynamic);
    w.field("interconnect", energy.interconnect);
    w.field("dram_dynamic", energy.dramDynamic);
    w.field("static_leakage", energy.staticLeakage);
    w.field("total", energy.total());
    w.close();

    // Emitted only by sampled runs (like "l2" above): detailed-mode
    // documents stay byte-identical to pre-sampling exports, which the
    // golden-hash tests pin.
    if (sampled) {
        w.object("sampling");
        w.field("windows", sample.windows);
        w.field("warmed_instrs", sample.warmedInstrs);
        w.field("ipc_mean", sample.ipcMean);
        w.field("ipc_variance", sample.ipcVariance);
        w.field("ipc_min", sample.ipcMin);
        w.field("ipc_max", sample.ipcMax);
        w.close();
    }

    w.close();
    return w.str();
}

Expected<SimResult>
SimResult::fromJson(const JsonValue &v)
{
    if (!v.isObject())
        return simError(ErrorCategory::TraceCorrupt,
                        "SimResult JSON is not an object");
    std::optional<SimError> err;
    JsonReader r(&v, err, ErrorCategory::TraceCorrupt, "SimResult");
    SimResult s;

    r.str("workload", s.workload);
    r.str("config", s.config);
    std::string cat;
    r.str("category", cat);
    if (!err) {
        bool found = false;
        for (Category c : {Category::Client, Category::Fspec,
                           Category::Hpc, Category::Ispec,
                           Category::Server}) {
            if (cat == categoryName(c)) {
                s.category = c;
                found = true;
                break;
            }
        }
        if (!found)
            err = simError(ErrorCategory::TraceCorrupt,
                           "unknown category '", cat, "'");
    }
    r.f64("ipc", s.ipc);

    JsonReader core = r.child("core");
    core.u64("instrs", s.core.instrs);
    core.u64("cycles", s.core.cycles);
    core.u64("loads", s.core.loads);
    core.u64("stores", s.core.stores);
    core.u64("forwarded_loads", s.core.forwardedLoads);
    core.u64("branches", s.core.branch.branches);
    core.u64("branch_mispredicts", s.core.branch.mispredicts);
    core.u64("branch_direction_wrong", s.core.branch.directionWrong);
    core.u64("branch_target_wrong", s.core.branch.targetWrong);

    JsonReader h = r.child("hierarchy");
    h.u64("loads", s.hier.loads);
    h.u64("load_hits_l1", s.hier.loadHits[0]);
    h.u64("load_hits_l2", s.hier.loadHits[1]);
    h.u64("load_hits_llc", s.hier.loadHits[2]);
    h.u64("load_hits_mem", s.hier.loadHits[3]);
    h.u64("total_load_latency", s.hier.totalLoadLatency);
    h.u64("total_l1_hit_latency", s.hier.totalL1HitLatency);
    h.u64Array("l1_hits_by_source", s.hier.l1HitsBySource, 7);
    h.u64Array("l1_hit_wait_by_source", s.hier.l1HitWaitBySource, 7);
    h.u64("store_accesses", s.hier.storeAccesses);
    h.u64("store_l1_misses", s.hier.storeL1Misses);
    h.u64Array("rfo_hits", s.hier.rfoHits, 4);
    h.u64("code_fetches", s.hier.codeFetches);
    h.u64Array("code_hits", s.hier.codeHits, 4);
    h.u64("demoted_loads", s.hier.demotedLoads);
    h.u64("oracle_converted", s.hier.oracleConverted);
    h.u64("ring_transfers", s.hier.ringTransfers);
    h.u64("mem_transfers", s.hier.memTransfers);
    h.u64("stride_pf_issued", s.hier.stridePfIssued);
    h.u64("stream_pf_issued", s.hier.streamPfIssued);
    h.u64("code_pf_issued", s.hier.codePfIssued);

    cacheFromJson(r.child("l1d"), s.l1d);
    cacheFromJson(r.child("l1i"), s.l1i);
    s.hasL2 = r.has("l2");
    if (s.hasL2)
        cacheFromJson(r.child("l2"), s.l2);
    cacheFromJson(r.child("llc"), s.llc);

    JsonReader dram = r.child("dram");
    dram.u64("reads", s.dram.reads);
    dram.u64("writes", s.dram.writes);
    dram.u64("activates", s.dram.activates);
    dram.u64("row_hits", s.dram.rowHits);
    dram.u64("row_misses", s.dram.rowMisses);
    dram.u64("write_drains", s.dram.writeDrains);
    dram.u64("refresh_stalls", s.dram.refreshStalls);
    dram.u64("total_read_latency", s.dram.totalReadLatency);
    dram.u64("total_bank_wait", s.dram.totalBankWait);
    dram.u64("total_bus_wait", s.dram.totalBusWait);

    JsonReader fe = r.child("frontend");
    fe.u64("line_fetches", s.frontend.lineFetches);
    fe.u64("code_stall_cycles", s.frontend.codeStallCycles);
    fe.u64("redirects", s.frontend.redirects);

    JsonReader crit = r.child("criticality");
    crit.u64("ddg_retired", s.ddg.retired);
    crit.u64("ddg_walks", s.ddg.walks);
    crit.u64("critical_loads_found", s.ddg.criticalLoadsFound);
    crit.u64("ddg_recorded", s.ddg.recorded);
    crit.u64("ddg_overflows", s.ddg.overflows);
    crit.u64("table_recordings", s.criticalTable.recordings);
    crit.u64("table_insertions", s.criticalTable.insertions);
    crit.u64("table_evictions", s.criticalTable.evictions);
    crit.u64("table_confidence_resets", s.criticalTable.confidenceResets);
    crit.u64("table_queries", s.criticalTable.queries);
    crit.u64("table_query_hits", s.criticalTable.queryHits);
    crit.u32("active_critical_pcs", s.activeCriticalPcs);

    JsonReader tact = r.child("tact");
    tact.u64("prefetches", s.hier.tactPrefetches);
    tact.u64("cross_issued", s.tact.crossIssued);
    tact.u64("deep_issued", s.tact.deepIssued);
    tact.u64("feeder_issued", s.tact.feederIssued);
    tact.u64("feeder_runaheads", s.tact.feederRunaheads);
    tact.u64("code_stalls", s.tact.codeStalls);
    tact.u64("code_lines", s.tact.codeLines);
    tact.u64("useful_hits", s.hier.tactUsefulHits);
    tact.u64("pf_from_l2", s.hier.tactPfFromL2);
    tact.u64("pf_from_llc", s.hier.tactPfFromLlc);
    tact.u64("pf_from_mem", s.hier.tactPfFromMem);
    tact.u64("pf_dropped", s.hier.tactPfDropped);
    tact.u64("pf_not_on_die", s.hier.tactPfNotOnDie);
    tact.f64("from_llc_fraction", s.tactFromLlcFraction);
    tact.f64("timeliness_ge80", s.timelinessAtLeast80);
    tact.f64("timeliness_ge10", s.timelinessAtLeast10);

    JsonReader energy = r.child("energy_mj");
    energy.f64("core_dynamic", s.energy.coreDynamic);
    energy.f64("cache_dynamic", s.energy.cacheDynamic);
    energy.f64("interconnect", s.energy.interconnect);
    energy.f64("dram_dynamic", s.energy.dramDynamic);
    energy.f64("static_leakage", s.energy.staticLeakage);

    s.sampled = r.has("sampling");
    if (s.sampled) {
        JsonReader sm = r.child("sampling");
        sm.u64("windows", s.sample.windows);
        sm.u64("warmed_instrs", s.sample.warmedInstrs);
        sm.f64("ipc_mean", s.sample.ipcMean);
        sm.f64("ipc_variance", s.sample.ipcVariance);
        sm.f64("ipc_min", s.sample.ipcMin);
        sm.f64("ipc_max", s.sample.ipcMax);
    }

    if (err)
        return *err;
    return s;
}

Expected<SimResult>
SimResult::fromJson(const std::string &json)
{
    auto v = parseJson(json);
    if (!v.ok())
        return v.error();
    return fromJson(v.value());
}

void
writeOutcomeBody(JsonWriter &w, const RunOutcome &out)
{
    w.field("status", std::string(runStatusName(out.status)));
    w.field("attempts", uint64_t(out.attempts));
    if (!out.ok()) {
        w.object("error");
        w.field("category", std::string(errorCategoryName(
                                out.failure->error.category)));
        w.field("message", out.failure->error.message);
        w.close();
        return;
    }
    // Host-side profiling rides beside the simulated result: it is
    // wall-clock data and deliberately NOT part of SimResult's
    // deterministic payload (or of a result-store record).
    if (const auto &p = out.profile) {
        w.object("hostPerf");
        w.field("trace_gen_sec", p->traceGenSec);
        w.field("warmup_sec", p->warmupSec);
        w.field("measured_sec", p->measuredSec);
        w.field("peak_rss_bytes", p->peakRssBytes);
        // Per-run (never campaign-cumulative) chunk-store counters:
        // hit-rate stays attributable to this cell.
        w.field("store_hit_chunks", p->storeHitChunks);
        w.field("store_miss_chunks", p->storeMissChunks);
        // Warmed-state snapshot traffic, same per-run scoping.
        w.field("warm_state_hits", p->warmStateHits);
        w.field("warm_state_misses", p->warmStateMisses);
        w.field("warm_state_bytes", p->warmStateBytes);
        // Window-boundary (inter-sample) snapshot traffic, split from
        // the global-warmup counters above.
        w.field("warm_state_window_hits", p->warmStateWindowHits);
        w.field("warm_state_window_misses", p->warmStateWindowMisses);
        w.field("warm_state_window_bytes", p->warmStateWindowBytes);
        w.close();
    }
    w.rawField("result", out.result.toJson());
}

void
readOutcomeBody(const JsonReader &r, RunOutcome &out)
{
    std::string status;
    uint64_t attempts = 1;
    r.str("status", status);
    r.u64("attempts", attempts);
    auto st = runStatusFromName(status);
    if (r.failed())
        return;
    if (!st)
        return r.fail("unknown run status '", status, "'");
    out.status = *st;
    out.attempts = static_cast<unsigned>(std::max<uint64_t>(1, attempts));
    if (!out.ok()) {
        JsonReader e = r.child("error");
        std::string category, message;
        e.str("category", category);
        e.str("message", message);
        if (r.failed())
            return;
        auto ec = errorCategoryFromName(category);
        if (!ec)
            return r.fail("unknown error category '", category, "'");
        out.failure = RunFailure{SimError{*ec, message}, out.attempts};
        return;
    }
    if (r.has("hostPerf")) {
        JsonReader hp = r.child("hostPerf");
        RunProfile p;
        hp.f64("trace_gen_sec", p.traceGenSec);
        hp.f64("warmup_sec", p.warmupSec);
        hp.f64("measured_sec", p.measuredSec);
        hp.u64("peak_rss_bytes", p.peakRssBytes);
        hp.u64("store_hit_chunks", p.storeHitChunks);
        hp.u64("store_miss_chunks", p.storeMissChunks);
        hp.u64("warm_state_hits", p.warmStateHits);
        hp.u64("warm_state_misses", p.warmStateMisses);
        hp.u64("warm_state_bytes", p.warmStateBytes);
        hp.u64("warm_state_window_hits", p.warmStateWindowHits);
        hp.u64("warm_state_window_misses", p.warmStateWindowMisses);
        hp.u64("warm_state_window_bytes", p.warmStateWindowBytes);
        out.profile = p;
    }
    const JsonValue *res = r.raw("result", JsonValue::Kind::Object);
    if (!res)
        return;
    auto sim = SimResult::fromJson(*res);
    if (!sim.ok())
        return r.fail("result payload corrupt: ", sim.error().message);
    out.result = std::move(sim).value();
}

namespace
{

/**
 * Atomic document write: full body to <path>.tmp, verified, renamed
 * over <path>. The reserved fault-injection target "json-export" makes
 * the transient-IO path testable.
 */
Expected<void>
writeDocument(const std::string &path, const std::string &body)
{
    const FaultPlan &plan = FaultPlan::global();
    if (plan.shouldInject(FaultKind::IoTransient, "json-export"))
        return simError(ErrorCategory::IoTransient,
                        "injected transient IO failure writing '", path,
                        "'");
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        return simError(ErrorCategory::Config, "cannot open '", tmp,
                        "' for writing");
    size_t n = std::fwrite(body.data(), 1, body.size(), f);
    bool bad = n != body.size() || std::ferror(f) != 0;
    if (std::fclose(f) != 0)
        bad = true;
    if (bad) {
        std::remove(tmp.c_str());
        return simError(ErrorCategory::IoTransient,
                        "short or failed write to '", tmp, "' (", n,
                        " of ", body.size(), " bytes)");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return simError(ErrorCategory::IoTransient, "cannot rename '",
                        tmp, "' to '", path, "'");
    }
    return {};
}

std::string
suiteHeader(const SimConfig &cfg, const ExperimentEnv &env)
{
    JsonWriter w;
    w.open();
    w.field("config", cfg.name);
    w.field("instrs", env.instrs);
    w.field("warmup", env.warmup);
    w.key("results");
    return w.str();
}

} // namespace

Expected<void>
writeSuiteJson(const std::string &path, const SimConfig &cfg,
               const ExperimentEnv &env,
               const std::vector<SimResult> &results)
{
    std::string body = suiteHeader(cfg, env);
    body += "[\n";
    for (size_t i = 0; i < results.size(); ++i) {
        body += results[i].toJson();
        if (i + 1 < results.size())
            body += ',';
        body += '\n';
    }
    body += "]}\n";
    return writeDocument(path, body);
}

Expected<void>
writeSuiteJson(const std::string &path, const SimConfig &cfg,
               const ExperimentEnv &env,
               const std::vector<RunOutcome> &outcomes)
{
    CampaignSummary sum = summarizeOutcomes(outcomes);
    JsonWriter head;
    head.open();
    head.field("config", cfg.name);
    head.field("instrs", env.instrs);
    head.field("warmup", env.warmup);
    head.object("summary");
    head.field("total", sum.total());
    head.field("ok", sum.ok);
    head.field("retried", sum.retried);
    head.field("failed", sum.failed);
    head.field("timed_out", sum.timedOut);
    head.field("crashed", sum.crashed);
    head.field("store_hits", sum.storeHits);
    head.field("store_misses", sum.storeMisses);
    head.close();
    head.key("results");

    std::string body = head.str();
    body += "[\n";
    for (size_t i = 0; i < outcomes.size(); ++i) {
        JsonWriter w;
        w.open();
        w.field("workload", outcomes[i].workload);
        w.field("from_store", outcomes[i].fromStore);
        writeOutcomeBody(w, outcomes[i]);
        w.close();
        body += w.str();
        if (i + 1 < outcomes.size())
            body += ',';
        body += '\n';
    }
    body += "]}\n";
    return writeDocument(path, body);
}

} // namespace catchsim
