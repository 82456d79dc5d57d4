/**
 * @file
 * JSON export of suite results: SimResult::toJson()/fromJson() plus the
 * suite-level writers the bench binaries and the CLI use to emit
 * machine-readable per-workload stats next to their stdout tables
 * (CATCH_JSON env knob).
 *
 * toJson() covers every counter SimResult carries and fromJson() parses
 * it back bitwise-exactly (exact u64, %.17g doubles); result-store
 * replays rest on this round trip. Both directions run one field list
 * per record (resultFields, cacheFields, profileFields; see
 * JsonFieldWriter), so each counter is named once. The RunOutcome
 * body codec the worker protocol, the result store and the suite
 * export share lives here too. Suite documents are written
 * atomically: the full document goes to <path>.tmp, which is renamed
 * over <path> only after a verified complete write — a crashed export
 * never leaves a half-written file behind.
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

template <typename IO, typename S>
void
cacheFields(IO &io, S &s)
{
    io.u64("accesses", s.demandAccesses);
    io.u64("hits", s.demandHits);
    io.derived("hit_rate", s.hitRate());
    io.u64("fills", s.fills);
    io.u64("evictions", s.evictions);
    io.u64("dirty_evictions", s.dirtyEvictions);
    io.u64("invalidations", s.invalidations);
    io.u64("useless_prefetch_evictions", s.uselessPrefetchEvictions);
    io.u64("read_ops", s.readOps);
    io.u64("write_ops", s.writeOps);
}

/** SimResult's JSON shape, read and written (see JsonFieldWriter). */
template <typename IO, typename R>
void
resultFields(IO &io, R &r)
{
    io.str("workload", r.workload);
    io.str("config", r.config);
    io.enumeration("category", r.category, uint64_t(Category::Server),
                   categoryName);
    io.f64("ipc", r.ipc);
    io.object("core", [&r](auto &o) {
        o.u64("instrs", r.core.instrs);
        o.u64("cycles", r.core.cycles);
        o.u64("loads", r.core.loads);
        o.u64("stores", r.core.stores);
        o.u64("forwarded_loads", r.core.forwardedLoads);
        o.u64("branches", r.core.branch.branches);
        o.u64("branch_mispredicts", r.core.branch.mispredicts);
        o.u64("branch_direction_wrong", r.core.branch.directionWrong);
        o.u64("branch_target_wrong", r.core.branch.targetWrong);
    });
    io.object("hierarchy", [&h = r.hier](auto &o) {
        o.u64("loads", h.loads);
        o.u64("load_hits_l1", h.loadHits[0]);
        o.u64("load_hits_l2", h.loadHits[1]);
        o.u64("load_hits_llc", h.loadHits[2]);
        o.u64("load_hits_mem", h.loadHits[3]);
        o.u64("total_load_latency", h.totalLoadLatency);
        o.u64("total_l1_hit_latency", h.totalL1HitLatency);
        o.u64Array("l1_hits_by_source", h.l1HitsBySource, 7);
        o.u64Array("l1_hit_wait_by_source", h.l1HitWaitBySource, 7);
        o.u64("store_accesses", h.storeAccesses);
        o.u64("store_l1_misses", h.storeL1Misses);
        o.u64Array("rfo_hits", h.rfoHits, 4);
        o.u64("code_fetches", h.codeFetches);
        o.u64Array("code_hits", h.codeHits, 4);
        o.u64("demoted_loads", h.demotedLoads);
        o.u64("oracle_converted", h.oracleConverted);
        o.u64("ring_transfers", h.ringTransfers);
        o.u64("mem_transfers", h.memTransfers);
        o.u64("stride_pf_issued", h.stridePfIssued);
        o.u64("stream_pf_issued", h.streamPfIssued);
        o.u64("code_pf_issued", h.codePfIssued);
    });
    io.object("l1d", [&r](auto &o) { cacheFields(o, r.l1d); });
    io.object("l1i", [&r](auto &o) { cacheFields(o, r.l1i); });
    io.object("l2", r.hasL2, [&r](auto &o) { cacheFields(o, r.l2); });
    io.object("llc", [&r](auto &o) { cacheFields(o, r.llc); });
    io.object("dram", [&d = r.dram](auto &o) {
        o.u64("reads", d.reads);
        o.u64("writes", d.writes);
        o.u64("activates", d.activates);
        o.u64("row_hits", d.rowHits);
        o.u64("row_misses", d.rowMisses);
        o.u64("write_drains", d.writeDrains);
        o.u64("refresh_stalls", d.refreshStalls);
        o.u64("total_read_latency", d.totalReadLatency);
        o.u64("total_bank_wait", d.totalBankWait);
        o.u64("total_bus_wait", d.totalBusWait);
        o.derived("avg_read_latency", d.avgReadLatency());
    });
    io.object("frontend", [&f = r.frontend](auto &o) {
        o.u64("line_fetches", f.lineFetches);
        o.u64("code_stall_cycles", f.codeStallCycles);
        o.u64("redirects", f.redirects);
    });
    io.object("criticality", [&r](auto &o) {
        o.u64("ddg_retired", r.ddg.retired);
        o.u64("ddg_walks", r.ddg.walks);
        o.u64("critical_loads_found", r.ddg.criticalLoadsFound);
        o.u64("ddg_recorded", r.ddg.recorded);
        o.u64("ddg_overflows", r.ddg.overflows);
        o.u64("table_recordings", r.criticalTable.recordings);
        o.u64("table_insertions", r.criticalTable.insertions);
        o.u64("table_evictions", r.criticalTable.evictions);
        o.u64("table_confidence_resets",
              r.criticalTable.confidenceResets);
        o.u64("table_queries", r.criticalTable.queries);
        o.u64("table_query_hits", r.criticalTable.queryHits);
        o.u32("active_critical_pcs", r.activeCriticalPcs);
    });
    io.object("tact", [&r](auto &o) {
        o.u64("prefetches", r.hier.tactPrefetches);
        o.u64("cross_issued", r.tact.crossIssued);
        o.u64("deep_issued", r.tact.deepIssued);
        o.u64("feeder_issued", r.tact.feederIssued);
        o.u64("feeder_runaheads", r.tact.feederRunaheads);
        o.u64("code_stalls", r.tact.codeStalls);
        o.u64("code_lines", r.tact.codeLines);
        o.u64("useful_hits", r.hier.tactUsefulHits);
        o.u64("pf_from_l2", r.hier.tactPfFromL2);
        o.u64("pf_from_llc", r.hier.tactPfFromLlc);
        o.u64("pf_from_mem", r.hier.tactPfFromMem);
        o.u64("pf_dropped", r.hier.tactPfDropped);
        o.u64("pf_not_on_die", r.hier.tactPfNotOnDie);
        o.f64("from_llc_fraction", r.tactFromLlcFraction);
        o.f64("timeliness_ge80", r.timelinessAtLeast80);
        o.f64("timeliness_ge10", r.timelinessAtLeast10);
    });
    io.object("energy_mj", [&e = r.energy](auto &o) {
        o.f64("core_dynamic", e.coreDynamic);
        o.f64("cache_dynamic", e.cacheDynamic);
        o.f64("interconnect", e.interconnect);
        o.f64("dram_dynamic", e.dramDynamic);
        o.f64("static_leakage", e.staticLeakage);
        o.derived("total", e.total());
    });
    // Emitted only by sampled runs (like "l2" above): detailed-mode
    // documents stay byte-identical to pre-sampling exports, which the
    // golden-hash tests pin.
    io.object("sampling", r.sampled, [&s = r.sample](auto &o) {
        o.u64("windows", s.windows);
        o.u64("warmed_instrs", s.warmedInstrs);
        o.f64("ipc_mean", s.ipcMean);
        o.f64("ipc_variance", s.ipcVariance);
        o.f64("ipc_min", s.ipcMin);
        o.f64("ipc_max", s.ipcMax);
    });
}

/** The "hostPerf" object: host-side profiling beside the result. */
template <typename IO, typename P>
void
profileFields(IO &io, P &p)
{
    io.f64("trace_gen_sec", p.traceGenSec);
    io.f64("warmup_sec", p.warmupSec);
    io.f64("measured_sec", p.measuredSec);
    io.u64("peak_rss_bytes", p.peakRssBytes);
    // Per-run (never campaign-cumulative) chunk-store counters:
    // hit-rate stays attributable to this cell.
    io.u64("store_hit_chunks", p.storeHitChunks);
    io.u64("store_miss_chunks", p.storeMissChunks);
    // Warmed-state snapshot traffic, same per-run scoping.
    io.u64("warm_state_hits", p.warmStateHits);
    io.u64("warm_state_misses", p.warmStateMisses);
    io.u64("warm_state_bytes", p.warmStateBytes);
}

} // namespace

std::string
SimResult::toJson() const
{
    JsonWriter w;
    w.open();
    JsonFieldWriter fw(w);
    resultFields(fw, *this);
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
    resultFields(r, s);
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
    if (out.profile) {
        const RunProfile &p = *out.profile;
        JsonFieldWriter fw(w);
        fw.object("hostPerf", [&p](auto &o) { profileFields(o, p); });
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
        RunProfile p;
        r.object("hostPerf", [&p](auto &o) { profileFields(o, p); });
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

} // namespace

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
