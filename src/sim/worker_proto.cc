#include "sim/worker_proto.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include "common/bitutil.hh"
#include "common/fault_inject.hh"
#include "sim/simulator.hh"

#include <unistd.h>

namespace catchsim
{

namespace
{

uint32_t
decodeLen(const char *p)
{
    return uint32_t(uint8_t(p[0])) | uint32_t(uint8_t(p[1])) << 8 |
           uint32_t(uint8_t(p[2])) << 16 | uint32_t(uint8_t(p[3])) << 24;
}

void
encodeLen(uint32_t len, char *p)
{
    p[0] = char(len & 0xff);
    p[1] = char((len >> 8) & 0xff);
    p[2] = char((len >> 16) & 0xff);
    p[3] = char((len >> 24) & 0xff);
}

template <typename IO, typename G>
void
geometryFields(IO &io, G &g)
{
    io.u64("size_bytes", g.sizeBytes);
    io.u32("ways", g.ways);
    io.u32("latency", g.latency);
}

/** SimConfig's JSON shape, read and written (see JsonFieldWriter). */
template <typename IO, typename C>
void
configFields(IO &io, C &c)
{
    io.str("name", c.name);
    io.object("core", [&c](auto &o) {
        o.u32("width", c.width);
        o.u32("rob_size", c.robSize);
        o.u32("rename_lat", c.renameLat);
        o.u32("redirect_lat", c.redirectLat);
        o.u32("num_arch_regs", c.numArchRegs);
        o.u32("store_queue_size", c.storeQueueSize);
        o.u32("fwd_latency", c.fwdLatency);
        o.u32("alu_ports", c.aluPorts);
        o.u32("load_ports", c.loadPorts);
        o.u32("store_ports", c.storePorts);
        o.u32("fp_ports", c.fpPorts);
    });
    io.boolean("has_l2", c.hasL2);
    io.enumeration("inclusion", c.inclusion,
                   uint64_t(InclusionPolicy::Nine));
    io.object("l1i", [&c](auto &o) { geometryFields(o, c.l1i); });
    io.object("l1d", [&c](auto &o) { geometryFields(o, c.l1d); });
    io.object("l2", [&c](auto &o) { geometryFields(o, c.l2); });
    io.object("llc", [&c](auto &o) { geometryFields(o, c.llc); });
    io.boolean("l1_stride_prefetcher", c.l1StridePrefetcher);
    io.boolean("l2_stream_prefetcher", c.l2StreamPrefetcher);
    io.u32("stream_degree", c.streamDegree);
    io.object("dram", [&d = c.dram](auto &o) {
        o.u32("channels", d.channels);
        o.u32("ranks_per_channel", d.ranksPerChannel);
        o.u32("banks_per_rank", d.banksPerRank);
        o.u32("row_bytes", d.rowBytes);
        o.u32("t_cas", d.tCas);
        o.u32("t_rcd", d.tRcd);
        o.u32("t_rp", d.tRp);
        o.u32("t_ras", d.tRas);
        o.u32("burst_cycles", d.burstCycles);
        o.u32("controller_lat", d.controllerLat);
        o.u32("write_queue_depth", d.writeQueueDepth);
        o.u32("write_drain_watermark", d.writeDrainWatermark);
        o.u32("write_drain_batch", d.writeDrainBatch);
        o.u32("t_refi", d.tRefi);
        o.u32("t_rfc", d.tRfc);
    });
    io.object("criticality", [&k = c.criticality](auto &o) {
        o.boolean("enabled", k.enabled);
        o.enumeration("kind", k.kind, uint64_t(DetectorKind::Heuristic));
        o.u32("table_entries", k.tableEntries);
        o.u32("table_ways", k.tableWays);
        o.u32("confidence_bits", k.confidenceBits);
        o.u64("conf_reset_interval", k.confResetInterval);
        o.f64("graph_factor", k.graphFactor);
        o.f64("walk_factor", k.walkFactor);
        o.u32("latency_quant_shift", k.latencyQuantShift);
        o.u32("hashed_pc_bits", k.hashedPcBits);
    });
    io.object("tact", [&t = c.tact](auto &o) {
        o.boolean("cross", t.cross);
        o.boolean("deep_self", t.deepSelf);
        o.boolean("feeder", t.feeder);
        o.boolean("code", t.code);
        o.u32("trigger_cache_sets", t.triggerCacheSets);
        o.u32("trigger_cache_ways", t.triggerCacheWays);
        o.u32("trigger_pcs_per_page", t.triggerPcsPerPage);
        o.u32("cross_train_instances", t.crossTrainInstances);
        o.u32("cross_candidate_wraps", t.crossCandidateWraps);
        o.u32("deep_max_distance", t.deepMaxDistance);
        o.u32("safe_length_cap", t.safeLengthCap);
        o.u32("feeder_depth", t.feederDepth);
        o.u32("code_runahead_lines", t.codeRunaheadLines);
    });
    io.object("oracle", [&x = c.oracle](auto &o) {
        o.u32("lat_add_l1", x.latAddL1);
        o.u32("lat_add_l2", x.latAddL2);
        o.u32("lat_add_llc", x.latAddLlc);
        o.enumeration("demote", x.demote,
                      uint64_t(DemoteMode::LlcToMemNonCrit));
        o.boolean("oracle_prefetch", x.oraclePrefetch);
        o.u32("oracle_prefetch_pc_limit", x.oraclePrefetchPcLimit);
        o.boolean("oracle_code_in_l1", x.oracleCodeInL1);
    });
    io.object("sampling", [&s = c.sampling](auto &o) {
        o.enumeration("mode", s.mode, uint64_t(SampleMode::Sampled));
        o.u64("interval_instrs", s.intervalInstrs);
        o.u64("window_instrs", s.windowInstrs);
        o.u64("warmup_instrs", s.warmupInstrs);
    });
    io.u32("num_cores", c.numCores);
}

/** The worker request's scalar fields; "type" and the embedded config
 *  frame them in buildWorkerRequest / parseWorkerRequest. */
template <typename IO, typename Q>
void
requestFields(IO &io, Q &q)
{
    io.str("workload", q.workload);
    io.u64("instrs", q.instrs);
    io.u64("warmup", q.warmup);
    io.u32("attempt_base", q.attemptBase);
    io.u32("max_attempts", q.opts.maxAttempts);
    io.u32("backoff_ms", q.opts.backoffMs);
    io.boolean("profile", q.opts.profile);
    io.u64("max_cycles", q.opts.budget.maxCycles);
    io.u64("stall_window", q.opts.budget.stallWindowCycles);
    io.u32("heartbeat_ms", q.heartbeatMs);
}

} // namespace

Expected<void>
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return simError(ErrorCategory::Internal, "frame payload of ",
                        payload.size(), " bytes exceeds the ",
                        uint64_t(kMaxFrameBytes), "-byte cap");
    std::string msg(4, '\0');
    encodeLen(static_cast<uint32_t>(payload.size()), msg.data());
    msg += payload;
    size_t off = 0;
    while (off < msg.size()) {
        ssize_t n = ::write(fd, msg.data() + off, msg.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return simError(ErrorCategory::IoTransient,
                            "frame write failed (errno ", errno, ")");
        }
        off += static_cast<size_t>(n);
    }
    return {};
}

Expected<std::string>
readFrame(int fd)
{
    auto read_exact = [fd](char *p, size_t n) -> Expected<void> {
        size_t off = 0;
        while (off < n) {
            ssize_t got = ::read(fd, p + off, n - off);
            if (got < 0) {
                if (errno == EINTR)
                    continue;
                return simError(ErrorCategory::Crashed,
                                "frame read failed (errno ", errno, ")");
            }
            if (got == 0)
                return simError(ErrorCategory::Crashed,
                                "pipe closed mid-frame (", off, " of ",
                                n, " bytes)");
            off += static_cast<size_t>(got);
        }
        return {};
    };

    char hdr[4];
    if (auto e = read_exact(hdr, 4); !e.ok())
        return e.error();
    uint32_t len = decodeLen(hdr);
    if (len > kMaxFrameBytes)
        return simError(ErrorCategory::Crashed, "frame length ", len,
                        " exceeds the ", uint64_t(kMaxFrameBytes),
                        "-byte cap (corrupt prefix)");
    std::string payload(len, '\0');
    if (len) {
        if (auto e = read_exact(payload.data(), len); !e.ok())
            return e.error();
    }
    return payload;
}

void
FrameDecoder::feed(const char *data, size_t n)
{
    if (!error_.empty())
        return;
    buf_.append(data, n);
}

int
FrameDecoder::next(std::string *out)
{
    if (!error_.empty())
        return -1;
    if (buf_.size() < 4)
        return 0;
    uint32_t len = decodeLen(buf_.data());
    if (len > kMaxFrameBytes) {
        error_ = "frame length " + std::to_string(len) +
                 " exceeds the 64 MB cap (corrupt prefix)";
        return -1;
    }
    if (buf_.size() < size_t(4) + len)
        return 0;
    out->assign(buf_, 4, len);
    buf_.erase(0, size_t(4) + len);
    return 1;
}

std::string
configToJson(const SimConfig &cfg)
{
    JsonWriter w;
    w.open();
    JsonFieldWriter fw(w);
    configFields(fw, cfg);
    w.close();
    return w.str();
}

Expected<SimConfig>
configFromJson(const JsonValue &v)
{
    if (!v.isObject())
        return simError(ErrorCategory::Config,
                        "SimConfig JSON is not an object");
    std::optional<SimError> err;
    JsonReader r(&v, err, ErrorCategory::Config, "protocol");
    SimConfig cfg;
    configFields(r, cfg);
    if (err)
        return *err;
    return cfg;
}

uint64_t
configDigest(const SimConfig &cfg)
{
    // The name is a label, not content: a renamed config simulates
    // identically, so its store cells stay valid (sim/result_store.hh).
    SimConfig canon = cfg;
    canon.name.clear();
    std::string json = configToJson(canon);
    return fnv1a(json.data(), json.size());
}

std::string
buildWorkerRequest(const SimConfig &cfg, const std::string &workload,
                   uint64_t instrs, uint64_t warmup,
                   unsigned attemptBase, const IsolationOptions &opts)
{
    WorkerRequest req;
    req.workload = workload;
    req.instrs = instrs;
    req.warmup = warmup;
    req.attemptBase = attemptBase;
    req.opts = opts;
    // The one place the beat period is worked out: a quarter of the
    // watchdog's budget, so a healthy worker beats several times per
    // timeout at any CATCH_HEARTBEAT_TIMEOUT_MS, capped at 1 s.
    req.heartbeatMs = std::clamp(opts.heartbeatTimeoutMs / 4, 1u, 1000u);
    JsonWriter w;
    w.open();
    w.field("type", std::string("request"));
    JsonFieldWriter fw(w);
    requestFields(fw, req);
    w.rawField("config", configToJson(cfg));
    w.close();
    return w.str();
}

Expected<WorkerRequest>
parseWorkerRequest(const std::string &json)
{
    auto parsed = parseJson(json);
    if (!parsed.ok())
        return simError(ErrorCategory::Config,
                        "bad worker request: ", parsed.error().message);
    const JsonValue &v = parsed.value();
    std::optional<SimError> err;
    JsonReader r(&v, err, ErrorCategory::Config, "protocol");

    std::string type;
    r.str("type", type);
    if (!err && type != "request")
        return simError(ErrorCategory::Config,
                        "worker request has type '", type, "'");

    WorkerRequest req;
    requestFields(r, req);
    const JsonValue *cfg_obj = r.raw("config", JsonValue::Kind::Object);
    if (err)
        return *err;
    req.attemptBase = std::max(1u, req.attemptBase);
    req.opts.maxAttempts = std::max(1u, req.opts.maxAttempts);
    req.heartbeatMs = std::max(1u, req.heartbeatMs);
    auto cfg = configFromJson(*cfg_obj);
    if (!cfg.ok())
        return cfg.error();
    req.cfg = std::move(cfg).value();
    return req;
}

std::string
buildWorkerResult(const RunOutcome &out)
{
    JsonWriter w;
    w.open();
    w.field("type", std::string("result"));
    w.field("workload", out.workload);
    w.field("config", out.config);
    writeOutcomeBody(w, out);
    w.close();
    return w.str();
}

Expected<RunOutcome>
parseWorkerResult(const std::string &json)
{
    auto parsed = parseJson(json);
    if (!parsed.ok())
        return simError(ErrorCategory::Crashed,
                        "bad worker result: ", parsed.error().message);
    std::optional<SimError> err;
    JsonReader r(&parsed.value(), err, ErrorCategory::Crashed,
                 "protocol");

    std::string type;
    r.str("type", type);
    if (!err && type != "result")
        return simError(ErrorCategory::Crashed,
                        "worker sent a '", type,
                        "' frame where a result was expected");
    RunOutcome out;
    r.str("workload", out.workload);
    r.str("config", out.config);
    readOutcomeBody(r, out);
    if (err)
        return *err;
    return out;
}

bool
isHeartbeatFrame(const std::string &json)
{
    auto parsed = parseJson(json);
    if (!parsed.ok() || !parsed.value().isObject())
        return false;
    const JsonValue *type = parsed.value().member("type");
    return type && type->kind() == JsonValue::Kind::String &&
           type->asString() == "heartbeat";
}

std::string
heartbeatPayload()
{
    JsonWriter w;
    w.open();
    w.field("type", std::string("heartbeat"));
    w.close();
    return w.str();
}

int
workerMain()
{
    // A dead supervisor must surface as a write error, not SIGPIPE
    // death: the run result is already lost either way, but an orderly
    // exit keeps worker diagnostics meaningful.
    signal(SIGPIPE, SIG_IGN);

    auto fail = [](SimError err) {
        RunOutcome out;
        out.status = RunStatus::Failed;
        out.failure = RunFailure{std::move(err), 1};
        // Best effort: if stdout is also broken there is nobody to
        // tell, and the supervisor classifies the silent death.
        (void)writeFrame(STDOUT_FILENO, buildWorkerResult(out));
        return 1;
    };

    auto raw = readFrame(STDIN_FILENO);
    if (!raw.ok())
        return fail(simError(ErrorCategory::Internal,
                             "worker could not read its request: ",
                             raw.error().message));
    auto req = parseWorkerRequest(raw.value());
    if (!req.ok())
        return fail(simError(ErrorCategory::Internal,
                             "worker rejected its request: ",
                             req.error().message));
    WorkerRequest r = std::move(req).value();

    // Process-level fault injection, counted by process attempt: a
    // ':xN' clause crashes the first N spawns and lets restart N+1
    // through. The plan arrives via the inherited environment.
    const FaultPlan &plan = FaultPlan::global();
    if (plan.shouldInject(FaultKind::CrashAbort, r.workload,
                          r.attemptBase))
        std::abort(); // catch-analyze: allow(fatal-boundary) injected crash
    if (plan.shouldInject(FaultKind::CrashSegv, r.workload,
                          r.attemptBase))
        raise(SIGSEGV);
    if (plan.shouldInject(FaultKind::Oom, r.workload, r.attemptBase))
        raise(SIGKILL); // the OOM killer's signal, without the memory
    const bool stalled = plan.shouldInject(FaultKind::HeartbeatStall,
                                           r.workload, r.attemptBase);
    if (stalled) {
        // Silent forever: no heartbeat thread, no result. Only the
        // supervisor's wall-clock watchdog can end this process.
        for (;;)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    // The heartbeat thread owns stdout until the run finishes; the
    // result frame is written only after join(), so frames never
    // interleave. The first beat goes out immediately, telling the
    // supervisor the exec succeeded.
    std::atomic<bool> done{false};
    std::thread heartbeat([&done, period = r.heartbeatMs] {
        const std::string beat = heartbeatPayload();
        while (!done.load(std::memory_order_relaxed)) {
            if (!writeFrame(STDOUT_FILENO, beat).ok())
                return; // supervisor gone; SIGKILL will follow
            unsigned slept = 0;
            while (slept < period &&
                   !done.load(std::memory_order_relaxed)) {
                unsigned slice = std::min(50u, period - slept);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(slice));
                slept += slice;
            }
        }
    });

    // One worker serves exactly one run, so a memo store could never
    // hit here: the run goes without one.
    RunOutcome out = executeContainedRun(r.cfg, r.workload, r.instrs,
                                         r.warmup, r.opts, nullptr,
                                         nullptr);
    done.store(true, std::memory_order_relaxed);
    heartbeat.join();

    return writeFrame(STDOUT_FILENO, buildWorkerResult(out)).ok() ? 0
                                                                  : 1;
}

} // namespace catchsim
