/**
 * @file
 * Tests for process-isolated campaign execution (sim/supervisor.hh)
 * and its wire protocol (sim/worker_proto.hh): supervised campaigns
 * are bitwise-identical to in-process ones at any worker count,
 * injected worker crashes/hangs/exec failures become typed Crashed
 * outcomes in their own slots, bounded restarts recover transient
 * crashes, and the frame decoder survives fuzzing (truncated frames,
 * garbage length prefixes, malformed payloads).
 *
 * This binary doubles as its own worker executable: main() dispatches
 * --worker to workerMain() before gtest initialises, exactly like the
 * real CLI, so the supervisor's default /proc/self/exe re-exec works
 * under test. Crash faults reach the forked workers through the
 * inherited CATCH_FAULT_INJECT environment; the parent always passes
 * an explicit (empty) plan so its own behaviour stays deterministic.
 *
 * ASan note: sanitizers intercept deadly signals and turn them into
 * reports + nonzero exits, so these tests assert the outcome *category*
 * (Crashed / HeartbeatTimeout / ExecFail), never the message text.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/fault_inject.hh"
#include "common/host_clock.hh"
#include "sim/configs.hh"
#include "sim/parallel_runner.hh"
#include "sim/supervisor.hh"
#include "sim/worker_proto.hh"
#include "sim_result_compare.hh"

#include <unistd.h>

namespace catchsim
{
namespace
{

constexpr uint64_t kInstr = 20000;
constexpr uint64_t kWarm = 5000;

const FaultPlan kNoFaults;

/** Scoped CATCH_FAULT_INJECT for the workers this test forks. */
struct EnvGuard
{
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        EXPECT_EQ(setenv(name, value, 1), 0);
    }
    ~EnvGuard() { unsetenv(name_); }
    const char *name_;
};

IsolationOptions
fastOpts()
{
    IsolationOptions opts;
    opts.plan = &kNoFaults; // parent-side injection off by default
    opts.backoffMs = 0;
    opts.heartbeatTimeoutMs = 30000;
    return opts;
}

FaultPlan
mustParse(const std::string &spec)
{
    auto p = FaultPlan::parse(spec);
    EXPECT_TRUE(p.ok()) << spec;
    return p.ok() ? std::move(p).value() : FaultPlan{};
}

// ------------------------- wire protocol -------------------------

TEST(WorkerProto, FramesRoundTripThroughAPipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string payload = "{\"type\":\"heartbeat\"}";
    ASSERT_TRUE(writeFrame(fds[1], payload).ok());
    auto got = readFrame(fds[0]);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), payload);
    EXPECT_TRUE(isHeartbeatFrame(got.value()));

    // EOF mid-stream is a crashed-category error, not UB.
    ASSERT_TRUE(writeFrame(fds[1], payload).ok());
    ::close(fds[1]);
    ASSERT_TRUE(readFrame(fds[0]).ok());
    auto eof = readFrame(fds[0]);
    ASSERT_FALSE(eof.ok());
    EXPECT_EQ(eof.error().category, ErrorCategory::Crashed);
    ::close(fds[0]);
}

TEST(WorkerProto, DecoderReassemblesByteByByte)
{
    const std::string payload = heartbeatPayload();
    std::string wire(4, '\0');
    wire[0] = char(payload.size()); // fits in one byte
    wire += payload;
    wire += wire; // two frames back to back

    FrameDecoder d;
    std::vector<std::string> frames;
    for (char c : wire) {
        d.feed(&c, 1);
        std::string out;
        while (d.next(&out) == 1)
            frames.push_back(out);
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], payload);
    EXPECT_EQ(frames[1], payload);
    EXPECT_TRUE(d.error().empty());
}

TEST(WorkerProto, DecoderFuzzTruncationAndGarbage)
{
    // A truncated frame is "need more bytes", never an error or a
    // phantom frame.
    {
        FrameDecoder d;
        const std::string payload = heartbeatPayload();
        std::string wire(4, '\0');
        wire[0] = char(payload.size());
        wire += payload.substr(0, payload.size() - 3);
        d.feed(wire.data(), wire.size());
        std::string out;
        EXPECT_EQ(d.next(&out), 0);
        EXPECT_TRUE(d.error().empty());
    }
    // A garbage length prefix (e.g. a worker printing text to stdout)
    // latches a protocol error immediately and forever.
    {
        FrameDecoder d;
        const char noise[] = "Segmentation fault (core dumped)\n";
        d.feed(noise, sizeof(noise) - 1);
        std::string out;
        EXPECT_EQ(d.next(&out), -1);
        EXPECT_FALSE(d.error().empty());
        d.feed(noise, sizeof(noise) - 1); // ignored once latched
        EXPECT_EQ(d.next(&out), -1);
    }
    // An oversized-but-plausible length prefix is corruption too.
    {
        FrameDecoder d;
        char hdr[4] = {0, 0, 0, 0x7f}; // ~2 GB
        d.feed(hdr, 4);
        std::string out;
        EXPECT_EQ(d.next(&out), -1);
    }
}

TEST(WorkerProto, ResultParserRejectsMalformedPayloads)
{
    for (const char *bad :
         {"", "not json", "{\"type\":\"result\"}", "[1,2,3]",
          "{\"type\":\"request\"}",
          "{\"type\":\"result\",\"workload\":\"w\",\"config\":\"c\","
          "\"status\":\"ok\",\"attempts\":1}"}) {
        auto out = parseWorkerResult(bad);
        ASSERT_FALSE(out.ok()) << bad;
        EXPECT_EQ(out.error().category, ErrorCategory::Crashed) << bad;
    }
}

TEST(WorkerProto, ResultFrameRoundTripsProfileAndFailure)
{
    // The result frame rides on the shared RunOutcome body codec. A
    // profiled success (every hostPerf field distinct) and a structured
    // failure must re-serialise byte-identically after a parse, so no
    // field is dropped or swapped either way.
    auto ran = runWorkloadsIsolated(baselineSkx(), {"hmmer"}, kInstr,
                                    kWarm, 1);
    ASSERT_TRUE(ran[0].ok());
    RunOutcome ok = ran[0];
    ok.status = RunStatus::Retried;
    ok.attempts = 2;
    ok.profile = RunProfile{0.25, 1.5, 3.125, 4, 5, 6, 7, 8, 9};

    RunOutcome failed;
    failed.workload = "mcf";
    failed.config = "c";
    failed.status = RunStatus::TimedOut;
    failed.attempts = 3;
    failed.failure = RunFailure{
        simError(ErrorCategory::BudgetExceeded, "stall window"), 3};

    for (const RunOutcome &out : {ok, failed}) {
        const std::string frame = buildWorkerResult(out);
        auto back = parseWorkerResult(frame);
        ASSERT_TRUE(back.ok()) << back.error().message;
        EXPECT_EQ(buildWorkerResult(back.value()), frame);
        EXPECT_EQ(back.value().profile.has_value(), out.ok());
    }
}

TEST(WorkerProto, ConfigJsonRoundTripsCanonically)
{
    SimConfig cfg = withCatch(baselineSkx());
    cfg.oracle.latAddLlc = 7;
    std::string json = configToJson(cfg);
    auto parsed = parseJson(json);
    ASSERT_TRUE(parsed.ok());
    auto back = configFromJson(parsed.value());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(configToJson(back.value()), json)
        << "round-trip must be canonical for the digest to be stable";
    EXPECT_EQ(configDigest(back.value()), configDigest(cfg));
}

TEST(WorkerProto, ConfigRoundTripsEveryField)
{
    // Every field distinct from its default and from every other
    // field, each enum at its largest value: a field the JSON drops,
    // or two fields sharing one key, cannot survive this round trip.
    uint32_t n = 1000;
    SimConfig c;
    c.name = "every-field";
    for (uint32_t *f : {&c.width, &c.robSize, &c.renameLat,
                        &c.redirectLat, &c.numArchRegs,
                        &c.storeQueueSize, &c.fwdLatency, &c.aluPorts,
                        &c.loadPorts, &c.storePorts, &c.fpPorts,
                        &c.streamDegree, &c.numCores})
        *f = n++;
    c.hasL2 = false;
    c.inclusion = InclusionPolicy::Nine;
    for (CacheGeometry *g : {&c.l1i, &c.l1d, &c.l2, &c.llc}) {
        g->sizeBytes = uint64_t(n++) << 33;
        g->ways = n++;
        g->latency = n++;
    }
    c.l1StridePrefetcher = false;
    c.l2StreamPrefetcher = false;
    DramConfig &d = c.dram;
    for (uint32_t *f :
         {&d.channels, &d.ranksPerChannel, &d.banksPerRank, &d.rowBytes,
          &d.tCas, &d.tRcd, &d.tRp, &d.tRas, &d.burstCycles,
          &d.controllerLat, &d.writeQueueDepth, &d.writeDrainWatermark,
          &d.writeDrainBatch, &d.tRefi, &d.tRfc})
        *f = n++;
    CriticalityConfig &k = c.criticality;
    k.enabled = true;
    k.kind = DetectorKind::Heuristic;
    for (uint32_t *f : {&k.tableEntries, &k.tableWays, &k.confidenceBits,
                        &k.latencyQuantShift, &k.hashedPcBits})
        *f = n++;
    k.confResetInterval = uint64_t(n++) << 35;
    k.graphFactor = 0.1 * n++;
    k.walkFactor = 1.0 / n++;
    TactConfig &t = c.tact;
    t.cross = t.deepSelf = t.feeder = t.code = true;
    for (uint32_t *f :
         {&t.triggerCacheSets, &t.triggerCacheWays, &t.triggerPcsPerPage,
          &t.crossTrainInstances, &t.crossCandidateWraps,
          &t.deepMaxDistance, &t.safeLengthCap, &t.feederDepth,
          &t.codeRunaheadLines})
        *f = n++;
    OracleConfig &o = c.oracle;
    for (uint32_t *f : {&o.latAddL1, &o.latAddL2, &o.latAddLlc,
                        &o.oraclePrefetchPcLimit})
        *f = n++;
    o.demote = DemoteMode::LlcToMemNonCrit;
    o.oraclePrefetch = o.oracleCodeInL1 = true;
    c.sampling.mode = SampleMode::Sampled;
    for (uint64_t *f : {&c.sampling.intervalInstrs,
                        &c.sampling.windowInstrs,
                        &c.sampling.warmupInstrs})
        *f = uint64_t(n++) << 34;

    const std::string json = configToJson(c);
    auto parsed = parseJson(json);
    ASSERT_TRUE(parsed.ok());
    auto back = configFromJson(parsed.value());
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_TRUE(back.value() == c) << json;
    EXPECT_EQ(configToJson(back.value()), json);
}

TEST(WorkerProto, ConfigDigestGoldens)
{
    // The result store keys cells on these bytes: a changed digest
    // orphans every stored cell of the config, so it must only move
    // on purpose.
    EXPECT_EQ(configDigest(baselineSkx()), 0x71cb90af6fb0b99full);
    EXPECT_EQ(configDigest(withCatch(noL2(baselineSkx(), 9728))),
              0xe2c06a1357043e77ull);
}

TEST(WorkerProto, RequestRoundTripCarriesTheKnobs)
{
    SimConfig cfg = baselineSkx();
    IsolationOptions opts;
    opts.maxAttempts = 5;
    opts.budget.maxCycles = 123456;
    opts.heartbeatTimeoutMs = 308;
    std::string payload =
        buildWorkerRequest(cfg, "mcf", kInstr, kWarm, 3, opts);
    auto req = parseWorkerRequest(payload);
    ASSERT_TRUE(req.ok()) << req.error().message;
    EXPECT_EQ(req.value().workload, "mcf");
    EXPECT_EQ(req.value().instrs, kInstr);
    EXPECT_EQ(req.value().warmup, kWarm);
    EXPECT_EQ(req.value().attemptBase, 3u);
    EXPECT_EQ(req.value().opts.maxAttempts, 5u);
    EXPECT_EQ(req.value().opts.budget.maxCycles, 123456u);
    EXPECT_EQ(req.value().heartbeatMs, 77u)
        << "workers beat every heartbeatTimeoutMs / 4";
    EXPECT_EQ(configToJson(req.value().cfg), configToJson(cfg));

    auto bad = parseWorkerRequest("{\"type\":\"request\"}");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().category, ErrorCategory::Config);
}

// --------------------- supervised execution ----------------------

/** The core guarantee: only the transport differs between modes. */
TEST(Supervisor, SupervisedMatchesInProcessBitwise)
{
    const std::vector<std::string> names = {"mcf", "hmmer", "omnetpp"};
    SimConfig cfg = withCatch(baselineSkx());
    auto inproc = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                       fastOpts());
    auto solo = runWorkloadsSupervised(cfg, names, kInstr, kWarm, 1,
                                       fastOpts());
    auto wide = runWorkloadsSupervised(cfg, names, kInstr, kWarm, 4,
                                       fastOpts());
    ASSERT_EQ(solo.size(), names.size());
    ASSERT_EQ(wide.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(inproc[i].ok()) << names[i];
        ASSERT_TRUE(solo[i].ok())
            << names[i] << ": "
            << (solo[i].failure ? solo[i].failure->error.message : "");
        ASSERT_TRUE(wide[i].ok()) << names[i];
        EXPECT_EQ(solo[i].workload, names[i]) << "order not stable";
        EXPECT_EQ(solo[i].status, RunStatus::Ok);
        expectBitwiseEqual(inproc[i].result, solo[i].result);
        expectBitwiseEqual(inproc[i].result, wide[i].result);
    }
}

TEST(Supervisor, CrashedWorkerIsContainedToItsSlot)
{
    EnvGuard fault("CATCH_FAULT_INJECT", "crash-segv:mcf");
    const std::vector<std::string> names = {"mcf", "hmmer"};
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.maxAttempts = 2;
    auto out = runWorkloadsSupervised(cfg, names, kInstr, kWarm, 2,
                                      opts);
    ASSERT_EQ(out.size(), 2u);

    ASSERT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].status, RunStatus::Crashed);
    EXPECT_EQ(out[0].failure->error.category, ErrorCategory::Crashed);
    EXPECT_EQ(out[0].attempts, 2u) << "crashes retry to maxAttempts";

    // The surviving slot is untouched by its neighbour's death.
    ASSERT_TRUE(out[1].ok());
    auto clean = runWorkloadsIsolated(cfg, {"hmmer"}, kInstr, kWarm, 1);
    ASSERT_TRUE(clean[0].ok());
    expectBitwiseEqual(clean[0].result, out[1].result);

    CampaignSummary sum = summarizeOutcomes(out);
    EXPECT_EQ(sum.crashed, 1u);
    EXPECT_FALSE(sum.allOk());
}

TEST(Supervisor, BoundedRestartRecoversATransientCrash)
{
    EnvGuard fault("CATCH_FAULT_INJECT", "crash-abort:mcf:x1");
    SimConfig cfg = baselineSkx();
    auto out = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm, 1,
                                      fastOpts());
    ASSERT_TRUE(out[0].ok())
        << (out[0].failure ? out[0].failure->error.message : "");
    EXPECT_EQ(out[0].status, RunStatus::Retried)
        << "a restart that succeeds reports as Retried";
    EXPECT_EQ(out[0].attempts, 2u);

    auto clean = runWorkloadsIsolated(cfg, {"mcf"}, kInstr, kWarm, 1);
    ASSERT_TRUE(clean[0].ok());
    expectBitwiseEqual(clean[0].result, out[0].result);
}

TEST(Supervisor, OomKilledWorkerIsTypedCrashed)
{
    EnvGuard fault("CATCH_FAULT_INJECT", "oom:mcf");
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.maxAttempts = 1;
    auto out = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm, 1,
                                      opts);
    ASSERT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].status, RunStatus::Crashed);
    EXPECT_EQ(out[0].failure->error.category, ErrorCategory::Crashed);
}

TEST(Supervisor, ExecFailureIsTypedAndRetried)
{
    FaultPlan plan = mustParse("exec-fail:mcf");
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.plan = &plan; // exec-fail injects supervisor-side
    opts.maxAttempts = 2;
    auto out = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm, 1,
                                      opts);
    ASSERT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].status, RunStatus::Crashed);
    EXPECT_EQ(out[0].failure->error.category, ErrorCategory::ExecFail);
    EXPECT_EQ(out[0].attempts, 2u);

    // A bounded clause lets the restart through.
    FaultPlan once = mustParse("exec-fail:mcf:x1");
    opts.plan = &once;
    auto recovered = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm,
                                            1, opts);
    ASSERT_TRUE(recovered[0].ok());
    EXPECT_EQ(recovered[0].status, RunStatus::Retried);
}

TEST(Supervisor, HeartbeatSilenceTripsTheWallClockWatchdog)
{
    EnvGuard fault("CATCH_FAULT_INJECT", "heartbeat-stall:mcf");
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.heartbeatTimeoutMs = 1000;
    auto out = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm, 1,
                                      opts);
    ASSERT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].status, RunStatus::Crashed);
    EXPECT_EQ(out[0].failure->error.category,
              ErrorCategory::HeartbeatTimeout);
    EXPECT_EQ(out[0].attempts, 1u)
        << "hangs are never restarted: the budget is already spent";
}

TEST(Supervisor, ShortHeartbeatTimeoutSparesAHealthyWorker)
{
    // Workers beat every timeout / 4, so a healthy run outlives any
    // timeout; a fixed 1 s beat would be killed at 500 ms.
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.heartbeatTimeoutMs = 500;
    const double start = hostSeconds();
    auto out = runWorkloadsSupervised(cfg, {"mcf"}, 8000000, 500000, 1,
                                      opts);
    const double elapsed = hostSeconds() - start;
    ASSERT_TRUE(out[0].ok())
        << (out[0].failure ? out[0].failure->error.message : "");
    EXPECT_EQ(out[0].status, RunStatus::Ok);
    EXPECT_GT(elapsed, 0.5)
        << "the run must outlast the timeout to test the beat period";
}

TEST(Supervisor, HungWorkerHoldsOnlyItsOwnSlot)
{
    // One stalled worker beside healthy ones at jobs=2: the watchdog
    // ends only the stalled slot, and the other slot keeps serving the
    // rest of the campaign meanwhile.
    EnvGuard fault("CATCH_FAULT_INJECT", "heartbeat-stall:omnetpp");
    const std::vector<std::string> names = {"mcf", "omnetpp", "hmmer",
                                            "milc"};
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.heartbeatTimeoutMs = 1000;
    auto out = runWorkloadsSupervised(cfg, names, kInstr, kWarm, 2, opts);
    auto clean = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                                      fastOpts());
    ASSERT_EQ(out.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(out[i].workload, names[i]);
        if (names[i] == "omnetpp") {
            ASSERT_FALSE(out[i].ok());
            EXPECT_EQ(out[i].status, RunStatus::Crashed);
            EXPECT_EQ(out[i].failure->error.category,
                      ErrorCategory::HeartbeatTimeout);
            continue;
        }
        ASSERT_TRUE(out[i].ok())
            << names[i] << ": "
            << (out[i].failure ? out[i].failure->error.message : "");
        EXPECT_EQ(out[i].status, RunStatus::Ok);
        ASSERT_TRUE(clean[i].ok()) << names[i];
        expectBitwiseEqual(clean[i].result, out[i].result);
    }
}

TEST(Supervisor, ForeignWorkerBinariesAreClassifiedNotTrusted)
{
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.maxAttempts = 1;

    // Prints "--worker" — a garbage length prefix on the wire.
    opts.workerBin = "/bin/echo";
    auto noisy = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm, 1,
                                        opts);
    ASSERT_FALSE(noisy[0].ok());
    EXPECT_EQ(noisy[0].status, RunStatus::Crashed);
    EXPECT_EQ(noisy[0].failure->error.category, ErrorCategory::Crashed);

    // Exits nonzero without a result frame.
    opts.workerBin = "/bin/false";
    auto silent = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm, 1,
                                         opts);
    ASSERT_FALSE(silent[0].ok());
    EXPECT_EQ(silent[0].status, RunStatus::Crashed);
    EXPECT_EQ(silent[0].failure->error.category, ErrorCategory::Crashed);

    // Cannot exec at all: the reserved exit-127 signature.
    opts.workerBin = "/nonexistent/no-such-binary";
    auto missing = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm,
                                          1, opts);
    ASSERT_FALSE(missing[0].ok());
    EXPECT_EQ(missing[0].status, RunStatus::Crashed);
    EXPECT_EQ(missing[0].failure->error.category,
              ErrorCategory::ExecFail);
}

TEST(Supervisor, UnknownWorkloadFailsInItsSlot)
{
    // The worker executes executeContainedRun, so an unknown name is a
    // contained config failure — same contract as the in-process path.
    SimConfig cfg = baselineSkx();
    auto out = runWorkloadsSupervised(cfg, {"no-such-workload"}, kInstr,
                                      kWarm, 1, fastOpts());
    ASSERT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].status, RunStatus::Failed);
    EXPECT_EQ(out[0].failure->error.category, ErrorCategory::Config);
}

} // namespace
} // namespace catchsim

/**
 * Like the real CLI, this binary understands --worker: the supervisor
 * under test re-execs /proc/self/exe, which is this test executable.
 * The dispatch must run before gtest sees the flag.
 */
int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--worker") == 0)
        return catchsim::workerMain();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
