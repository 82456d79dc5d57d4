/**
 * @file
 * Wire protocol between the campaign supervisor and its worker
 * processes (process-isolated execution, sim/supervisor.hh).
 *
 * Framing: every message is a 4-byte little-endian u32 payload length
 * followed by that many bytes of JSON. Three message types flow worker
 * -> supervisor on the worker's stdout:
 *
 *   {"type":"heartbeat"}                 liveness; feeds the wall-clock
 *                                        watchdog, carries no data
 *   {"type":"result", ...}               the run's RunOutcome: status,
 *                                        attempts, then "result" (ok) or
 *                                        "error" {category, message},
 *                                        plus optional "hostPerf"
 *
 * and exactly one message flows supervisor -> worker on the worker's
 * stdin: the request, carrying the workload name, instruction counts,
 * the full SimConfig (configToJson, sampling schedule included) and
 * the containment knobs the worker needs (budget, attempt limits, and
 * a heartbeat period derived from the supervisor's timeout). The
 * worker inherits the supervisor's environment, so the fault plan
 * (CATCH_FAULT_INJECT) needs no explicit plumbing; workers run without
 * memo stores.
 *
 * The supervisor parses worker bytes with FrameDecoder, which treats
 * every malformation — garbage length prefix, oversized frame,
 * truncation, stray bytes — as a typed protocol error, never UB: a
 * worker that dies mid-frame or prints garbage to stdout becomes a
 * Crashed RunFailure in its own slot.
 *
 * SimConfig round-trips through configToJson/configFromJson with exact
 * u64s and %.17g doubles (common/json.hh), so a worker simulates
 * byte-for-byte the config the supervisor holds — the foundation of the
 * cross-mode bitwise-identity guarantee. configDigest() hashes that
 * canonical serialisation; the incremental result store
 * (sim/result_store.hh) keys on it.
 */

#ifndef CATCHSIM_SIM_WORKER_PROTO_HH_
#define CATCHSIM_SIM_WORKER_PROTO_HH_

#include <string>

#include "common/error.hh"
#include "common/json.hh"
#include "common/sim_config.hh"
#include "sim/parallel_runner.hh"

namespace catchsim
{

/** Frames above this are protocol corruption, not data (64 MB). */
constexpr uint32_t kMaxFrameBytes = 64u << 20;

/**
 * Writes one length-prefixed frame to @p fd, restarting on EINTR.
 * A closed peer (EPIPE) or short write is an io-transient error.
 */
Expected<void> writeFrame(int fd, const std::string &payload);

/**
 * Blocking read of one complete frame from @p fd (the worker reading
 * its request). EOF before a full frame or an oversized length prefix
 * is a crashed-category error.
 */
Expected<std::string> readFrame(int fd);

/**
 * Incremental frame reassembly for the supervisor, which polls each
 * worker's pipe on its own thread: feed() whatever read() returned,
 * then drain complete frames with next().
 * Any malformation latches error() and next() returns -1 forever.
 */
class FrameDecoder
{
  public:
    /** Appends @p n raw bytes from the pipe. */
    void feed(const char *data, size_t n);

    /**
     * Extracts the next complete frame into @p out.
     * @return 1 frame ready, 0 need more bytes, -1 protocol error.
     */
    int next(std::string *out);

    const std::string &error() const { return error_; }

  private:
    std::string buf_;
    std::string error_;
};

/** One run request, as decoded by the worker. */
struct WorkerRequest
{
    SimConfig cfg;
    std::string workload;
    uint64_t instrs = 0;
    uint64_t warmup = 0;
    /** 1-based process attempt (restart index): drives the attempt
     *  number process-level fault clauses count (':xN'). */
    unsigned attemptBase = 1;
    /** Containment knobs the worker applies in-process; store
     *  members are meaningless across the process boundary and stay
     *  unset. */
    IsolationOptions opts;
    /** Heartbeat period: a quarter of opts.heartbeatTimeoutMs, within
     *  [1, 1000] ms (buildWorkerRequest derives it). */
    unsigned heartbeatMs = 1000;
};

/** Serialises one request frame payload (supervisor side). */
std::string buildWorkerRequest(const SimConfig &cfg,
                               const std::string &workload,
                               uint64_t instrs, uint64_t warmup,
                               unsigned attemptBase,
                               const IsolationOptions &opts);

/** Parses a request payload; config error on any malformation. */
Expected<WorkerRequest> parseWorkerRequest(const std::string &json);

/** Serialises a finished outcome as a result frame payload. */
std::string buildWorkerResult(const RunOutcome &out);

/**
 * Parses a result payload back into a RunOutcome (workload/config are
 * carried in the payload). Crashed-category error on malformation —
 * a worker that garbles its result is indistinguishable from one that
 * crashed writing it.
 */
Expected<RunOutcome> parseWorkerResult(const std::string &json);

/** True iff @p json is a heartbeat frame payload. */
bool isHeartbeatFrame(const std::string &json);

/** A heartbeat frame payload. */
std::string heartbeatPayload();

/**
 * Canonical JSON serialisation of every SimConfig knob (fixed field
 * order, exact integers, %.17g doubles). Two configs serialise
 * identically iff they simulate identically.
 */
std::string configToJson(const SimConfig &cfg);

/** Parses configToJson output; config error on bad shape or an
 *  out-of-range enum value. */
Expected<SimConfig> configFromJson(const JsonValue &v);

/**
 * FNV-1a of configToJson(cfg) with the name field blanked: the config
 * component of a result-store key. Any knob change — geometry, policy,
 * sampling schedule — moves the digest and invalidates cached cells;
 * renaming a config does not, because the name never enters the
 * simulation.
 */
uint64_t configDigest(const SimConfig &cfg);

/**
 * Entry point of the hidden --worker mode: reads one request frame
 * from stdin, heartbeats on stdout while executing the run via
 * executeContainedRun (the same unit of work the in-process executor
 * uses), writes one result frame, exits. Never touches the result
 * store — persistence is the supervisor's job, so a SIGKILLed
 * worker cannot leave half-written campaign state behind.
 */
int workerMain();

} // namespace catchsim

#endif // CATCHSIM_SIM_WORKER_PROTO_HH_
