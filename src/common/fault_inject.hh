/**
 * @file
 * Deterministic fault-injection harness (CATCH_FAULT_INJECT).
 *
 * Every containment path in the suite executor — trace corruption,
 * transient IO failure, a worker throwing, a hung run — can be forced
 * on demand so tests and CI exercise them without real faults. The
 * plan is a pure function of the spec string: the same spec injects
 * the same faults into the same runs at any job count, which is what
 * lets CI assert that unaffected slots stay bitwise identical.
 *
 * Spec grammar (parsed by FaultPlan::parse):
 *
 *   spec    := clause ( ';' clause )*
 *   clause  := kind ':' target [ ':x' count ]
 *   kind    := 'trace-corrupt' | 'io-transient' | 'exception' | 'hang'
 *            | 'crash-abort' | 'crash-segv' | 'oom' | 'exec-fail'
 *            | 'heartbeat-stall'
 *   target  := '*'                  every run
 *            | <name>               one run/operation by name
 *            | '%' pct '@' seed     pct% of names, chosen by a seeded
 *                                   per-name draw (common/rng.hh)
 *   count   := number of leading attempts that fail
 *              (default: 1 for io-transient — the retry succeeds —
 *               and unlimited for the other kinds)
 *
 * Examples:
 *   io-transient:mcf            mcf fails once, recovers on retry
 *   io-transient:mcf:x9         mcf exhausts every retry and fails
 *   trace-corrupt:tpcc;hang:milc  two persistent faults
 *   exception:%10@42            ~10% of runs throw (seed 42)
 *   crash-segv:%25@7            ~25% of isolated workers die by SIGSEGV
 *   crash-abort:mcf:x1          mcf's first worker process aborts; the
 *                               supervisor's restart succeeds
 *
 * The five process-level kinds (crash-abort, crash-segv, oom,
 * exec-fail, heartbeat-stall) act only in process-isolated mode
 * (sim/supervisor.hh): the first four take effect inside or while
 * spawning the worker process, heartbeat-stall silences the worker's
 * heartbeat so the wall-clock watchdog fires. For ':xN' counting their
 * attempt number is the process attempt (restart index), so a bounded
 * clause crashes the first N spawns and lets the restart succeed.
 *
 * Non-workload injection points use reserved names: the suite JSON
 * exporter asks for "json-export".
 */

#ifndef CATCHSIM_COMMON_FAULT_INJECT_HH_
#define CATCHSIM_COMMON_FAULT_INJECT_HH_

#include <string>
#include <vector>

#include "common/error.hh"

namespace catchsim
{

enum class FaultKind : uint8_t
{
    TraceCorrupt,
    IoTransient,
    WorkerThrow,
    Hang,
    CrashAbort,     ///< worker process calls abort() (SIGABRT death)
    CrashSegv,      ///< worker process raises SIGSEGV
    Oom,            ///< worker process raises SIGKILL (OOM-killer stand-in)
    ExecFail,       ///< supervisor spawn execs an unrunnable binary
    HeartbeatStall, ///< worker stops heartbeating and never finishes
};

/** Spec keyword of a kind ("trace-corrupt", "io-transient", ...). */
const char *faultKindName(FaultKind k);

/** One parsed clause of the spec. */
struct FaultClause
{
    FaultKind kind = FaultKind::IoTransient;
    std::string target;   ///< named target; empty for '*' / percent
    bool every = false;   ///< target '*'
    bool percent = false; ///< target '%pct@seed'
    uint32_t pct = 0;
    uint64_t seed = 0;
    uint64_t failCount = 0; ///< attempts that fail; 0 = unlimited
};

/** A parsed, immutable injection plan; all queries are pure. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Parses @p spec; config error on any malformed clause. */
    static Expected<FaultPlan> parse(const std::string &spec);

    /**
     * The process-wide plan from CATCH_FAULT_INJECT (empty plan when
     * unset). First call reads the environment: call once from startup
     * code per the env.hh contract; later calls return the cached plan
     * and are thread-safe.
     */
    static const FaultPlan &global();

    bool enabled() const { return !clauses_.empty(); }
    const std::vector<FaultClause> &clauses() const { return clauses_; }

    /**
     * Should @p kind be injected into @p name's @p attempt (1-based)?
     * Deterministic: depends only on the plan, the name and the
     * attempt number, never on scheduling or wall-clock.
     */
    bool shouldInject(FaultKind kind, const std::string &name,
                      unsigned attempt = 1) const;

  private:
    std::vector<FaultClause> clauses_;
};

} // namespace catchsim

#endif // CATCHSIM_COMMON_FAULT_INJECT_HH_
