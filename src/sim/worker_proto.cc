#include "sim/worker_proto.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include "common/fault_inject.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

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

void
geometryJson(JsonWriter &w, const char *name, const CacheGeometry &g)
{
    w.object(name);
    w.field("size_bytes", g.sizeBytes);
    w.field("ways", uint64_t(g.ways));
    w.field("latency", uint64_t(g.latency));
    w.close();
}

void
geometryFromJson(const JsonReader &r, CacheGeometry &g)
{
    r.u64("size_bytes", g.sizeBytes);
    r.u32("ways", g.ways);
    r.u32("latency", g.latency);
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
    w.field("name", cfg.name);

    w.object("core");
    w.field("width", uint64_t(cfg.width));
    w.field("rob_size", uint64_t(cfg.robSize));
    w.field("rename_lat", uint64_t(cfg.renameLat));
    w.field("redirect_lat", uint64_t(cfg.redirectLat));
    w.field("num_arch_regs", uint64_t(cfg.numArchRegs));
    w.field("store_queue_size", uint64_t(cfg.storeQueueSize));
    w.field("fwd_latency", uint64_t(cfg.fwdLatency));
    w.field("alu_ports", uint64_t(cfg.aluPorts));
    w.field("load_ports", uint64_t(cfg.loadPorts));
    w.field("store_ports", uint64_t(cfg.storePorts));
    w.field("fp_ports", uint64_t(cfg.fpPorts));
    w.close();

    w.field("has_l2", cfg.hasL2);
    w.field("inclusion", uint64_t(cfg.inclusion));
    geometryJson(w, "l1i", cfg.l1i);
    geometryJson(w, "l1d", cfg.l1d);
    geometryJson(w, "l2", cfg.l2);
    geometryJson(w, "llc", cfg.llc);
    w.field("l1_stride_prefetcher", cfg.l1StridePrefetcher);
    w.field("l2_stream_prefetcher", cfg.l2StreamPrefetcher);
    w.field("stream_degree", uint64_t(cfg.streamDegree));

    w.object("dram");
    w.field("channels", uint64_t(cfg.dram.channels));
    w.field("ranks_per_channel", uint64_t(cfg.dram.ranksPerChannel));
    w.field("banks_per_rank", uint64_t(cfg.dram.banksPerRank));
    w.field("row_bytes", uint64_t(cfg.dram.rowBytes));
    w.field("t_cas", uint64_t(cfg.dram.tCas));
    w.field("t_rcd", uint64_t(cfg.dram.tRcd));
    w.field("t_rp", uint64_t(cfg.dram.tRp));
    w.field("t_ras", uint64_t(cfg.dram.tRas));
    w.field("burst_cycles", uint64_t(cfg.dram.burstCycles));
    w.field("controller_lat", uint64_t(cfg.dram.controllerLat));
    w.field("write_queue_depth", uint64_t(cfg.dram.writeQueueDepth));
    w.field("write_drain_watermark",
            uint64_t(cfg.dram.writeDrainWatermark));
    w.field("write_drain_batch", uint64_t(cfg.dram.writeDrainBatch));
    w.field("t_refi", uint64_t(cfg.dram.tRefi));
    w.field("t_rfc", uint64_t(cfg.dram.tRfc));
    w.close();

    w.object("criticality");
    w.field("enabled", cfg.criticality.enabled);
    w.field("kind", uint64_t(cfg.criticality.kind));
    w.field("table_entries", uint64_t(cfg.criticality.tableEntries));
    w.field("table_ways", uint64_t(cfg.criticality.tableWays));
    w.field("confidence_bits", uint64_t(cfg.criticality.confidenceBits));
    w.field("conf_reset_interval", cfg.criticality.confResetInterval);
    w.field("graph_factor", cfg.criticality.graphFactor);
    w.field("walk_factor", cfg.criticality.walkFactor);
    w.field("latency_quant_shift",
            uint64_t(cfg.criticality.latencyQuantShift));
    w.field("hashed_pc_bits", uint64_t(cfg.criticality.hashedPcBits));
    w.close();

    w.object("tact");
    w.field("cross", cfg.tact.cross);
    w.field("deep_self", cfg.tact.deepSelf);
    w.field("feeder", cfg.tact.feeder);
    w.field("code", cfg.tact.code);
    w.field("trigger_cache_sets", uint64_t(cfg.tact.triggerCacheSets));
    w.field("trigger_cache_ways", uint64_t(cfg.tact.triggerCacheWays));
    w.field("trigger_pcs_per_page",
            uint64_t(cfg.tact.triggerPcsPerPage));
    w.field("cross_train_instances",
            uint64_t(cfg.tact.crossTrainInstances));
    w.field("cross_candidate_wraps",
            uint64_t(cfg.tact.crossCandidateWraps));
    w.field("deep_max_distance", uint64_t(cfg.tact.deepMaxDistance));
    w.field("safe_length_cap", uint64_t(cfg.tact.safeLengthCap));
    w.field("feeder_depth", uint64_t(cfg.tact.feederDepth));
    w.field("code_runahead_lines",
            uint64_t(cfg.tact.codeRunaheadLines));
    w.close();

    w.object("oracle");
    w.field("lat_add_l1", uint64_t(cfg.oracle.latAddL1));
    w.field("lat_add_l2", uint64_t(cfg.oracle.latAddL2));
    w.field("lat_add_llc", uint64_t(cfg.oracle.latAddLlc));
    w.field("demote", uint64_t(cfg.oracle.demote));
    w.field("oracle_prefetch", cfg.oracle.oraclePrefetch);
    w.field("oracle_prefetch_pc_limit",
            uint64_t(cfg.oracle.oraclePrefetchPcLimit));
    w.field("oracle_code_in_l1", cfg.oracle.oracleCodeInL1);
    w.close();

    w.object("sampling");
    w.field("mode", uint64_t(cfg.sampling.mode));
    w.field("interval_instrs", cfg.sampling.intervalInstrs);
    w.field("window_instrs", cfg.sampling.windowInstrs);
    w.field("warmup_instrs", cfg.sampling.warmupInstrs);
    w.close();

    w.field("num_cores", uint64_t(cfg.numCores));
    w.field("seed", cfg.seed);
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

    r.str("name", cfg.name);

    JsonReader core = r.child("core");
    core.u32("width", cfg.width);
    core.u32("rob_size", cfg.robSize);
    core.u32("rename_lat", cfg.renameLat);
    core.u32("redirect_lat", cfg.redirectLat);
    core.u32("num_arch_regs", cfg.numArchRegs);
    core.u32("store_queue_size", cfg.storeQueueSize);
    core.u32("fwd_latency", cfg.fwdLatency);
    core.u32("alu_ports", cfg.aluPorts);
    core.u32("load_ports", cfg.loadPorts);
    core.u32("store_ports", cfg.storePorts);
    core.u32("fp_ports", cfg.fpPorts);

    r.boolean("has_l2", cfg.hasL2);
    r.enumeration("inclusion", cfg.inclusion,
                  uint64_t(InclusionPolicy::Nine));
    geometryFromJson(r.child("l1i"), cfg.l1i);
    geometryFromJson(r.child("l1d"), cfg.l1d);
    geometryFromJson(r.child("l2"), cfg.l2);
    geometryFromJson(r.child("llc"), cfg.llc);
    r.boolean("l1_stride_prefetcher", cfg.l1StridePrefetcher);
    r.boolean("l2_stream_prefetcher", cfg.l2StreamPrefetcher);
    r.u32("stream_degree", cfg.streamDegree);

    JsonReader dram = r.child("dram");
    dram.u32("channels", cfg.dram.channels);
    dram.u32("ranks_per_channel", cfg.dram.ranksPerChannel);
    dram.u32("banks_per_rank", cfg.dram.banksPerRank);
    dram.u32("row_bytes", cfg.dram.rowBytes);
    dram.u32("t_cas", cfg.dram.tCas);
    dram.u32("t_rcd", cfg.dram.tRcd);
    dram.u32("t_rp", cfg.dram.tRp);
    dram.u32("t_ras", cfg.dram.tRas);
    dram.u32("burst_cycles", cfg.dram.burstCycles);
    dram.u32("controller_lat", cfg.dram.controllerLat);
    dram.u32("write_queue_depth", cfg.dram.writeQueueDepth);
    dram.u32("write_drain_watermark", cfg.dram.writeDrainWatermark);
    dram.u32("write_drain_batch", cfg.dram.writeDrainBatch);
    dram.u32("t_refi", cfg.dram.tRefi);
    dram.u32("t_rfc", cfg.dram.tRfc);

    JsonReader crit = r.child("criticality");
    crit.boolean("enabled", cfg.criticality.enabled);
    crit.enumeration("kind", cfg.criticality.kind,
                     uint64_t(DetectorKind::Heuristic));
    crit.u32("table_entries", cfg.criticality.tableEntries);
    crit.u32("table_ways", cfg.criticality.tableWays);
    crit.u32("confidence_bits", cfg.criticality.confidenceBits);
    crit.u64("conf_reset_interval", cfg.criticality.confResetInterval);
    crit.f64("graph_factor", cfg.criticality.graphFactor);
    crit.f64("walk_factor", cfg.criticality.walkFactor);
    crit.u32("latency_quant_shift", cfg.criticality.latencyQuantShift);
    crit.u32("hashed_pc_bits", cfg.criticality.hashedPcBits);

    JsonReader tact = r.child("tact");
    tact.boolean("cross", cfg.tact.cross);
    tact.boolean("deep_self", cfg.tact.deepSelf);
    tact.boolean("feeder", cfg.tact.feeder);
    tact.boolean("code", cfg.tact.code);
    tact.u32("trigger_cache_sets", cfg.tact.triggerCacheSets);
    tact.u32("trigger_cache_ways", cfg.tact.triggerCacheWays);
    tact.u32("trigger_pcs_per_page", cfg.tact.triggerPcsPerPage);
    tact.u32("cross_train_instances", cfg.tact.crossTrainInstances);
    tact.u32("cross_candidate_wraps", cfg.tact.crossCandidateWraps);
    tact.u32("deep_max_distance", cfg.tact.deepMaxDistance);
    tact.u32("safe_length_cap", cfg.tact.safeLengthCap);
    tact.u32("feeder_depth", cfg.tact.feederDepth);
    tact.u32("code_runahead_lines", cfg.tact.codeRunaheadLines);

    JsonReader oracle = r.child("oracle");
    oracle.u32("lat_add_l1", cfg.oracle.latAddL1);
    oracle.u32("lat_add_l2", cfg.oracle.latAddL2);
    oracle.u32("lat_add_llc", cfg.oracle.latAddLlc);
    oracle.enumeration("demote", cfg.oracle.demote,
                       uint64_t(DemoteMode::LlcToMemNonCrit));
    oracle.boolean("oracle_prefetch", cfg.oracle.oraclePrefetch);
    oracle.u32("oracle_prefetch_pc_limit",
               cfg.oracle.oraclePrefetchPcLimit);
    oracle.boolean("oracle_code_in_l1", cfg.oracle.oracleCodeInL1);

    JsonReader sampling = r.child("sampling");
    sampling.enumeration("mode", cfg.sampling.mode,
                         uint64_t(SampleMode::Sampled));
    sampling.u64("interval_instrs", cfg.sampling.intervalInstrs);
    sampling.u64("window_instrs", cfg.sampling.windowInstrs);
    sampling.u64("warmup_instrs", cfg.sampling.warmupInstrs);

    r.u32("num_cores", cfg.numCores);
    r.u64("seed", cfg.seed);

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
    JsonWriter w;
    w.open();
    w.field("type", std::string("request"));
    w.field("workload", workload);
    w.field("instrs", instrs);
    w.field("warmup", warmup);
    w.field("attempt_base", uint64_t(attemptBase));
    w.field("max_attempts", uint64_t(opts.maxAttempts));
    w.field("backoff_ms", uint64_t(opts.backoffMs));
    w.field("profile", opts.profile);
    w.field("max_cycles", opts.budget.maxCycles);
    w.field("stall_window", opts.budget.stallWindowCycles);
    w.field("heartbeat_ms", uint64_t(opts.heartbeatMs));
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
    r.str("workload", req.workload);
    r.u64("instrs", req.instrs);
    r.u64("warmup", req.warmup);
    uint64_t attempt_base = 1, max_attempts = 1, backoff = 0;
    uint64_t heartbeat = 1000;
    r.u64("attempt_base", attempt_base);
    r.u64("max_attempts", max_attempts);
    r.u64("backoff_ms", backoff);
    r.boolean("profile", req.opts.profile);
    r.u64("max_cycles", req.opts.budget.maxCycles);
    r.u64("stall_window", req.opts.budget.stallWindowCycles);
    r.u64("heartbeat_ms", heartbeat);
    const JsonValue *cfg_obj = r.raw("config", JsonValue::Kind::Object);
    if (err)
        return *err;
    req.attemptBase = static_cast<unsigned>(std::max<uint64_t>(
        1, attempt_base));
    req.opts.maxAttempts = static_cast<unsigned>(std::max<uint64_t>(
        1, max_attempts));
    req.opts.backoffMs = static_cast<unsigned>(backoff);
    req.opts.heartbeatMs = static_cast<unsigned>(std::max<uint64_t>(
        1, heartbeat));
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
        std::abort(); // catch-lint: allow(fatal-boundary) injected crash
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
    std::thread heartbeat([&done, period = r.opts.heartbeatMs] {
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

    RunOutcome out = executeContainedRun(r.cfg, r.workload, r.instrs,
                                         r.warmup, r.opts,
                                         ChunkStore::global(),
                                         WarmStateStore::global());
    done.store(true, std::memory_order_relaxed);
    heartbeat.join();

    return writeFrame(STDOUT_FILENO, buildWorkerResult(out)).ok() ? 0
                                                                  : 1;
}

} // namespace catchsim
