/**
 * @file
 * The simulated machine for one core or N (Machine), and the
 * single-thread simulator that runs one workload's trace on its
 * one-core case — detailed, or sampled with functional warming between
 * windows — and collects every statistic the benches report.
 */

#ifndef CATCHSIM_SIM_SIMULATOR_HH_
#define CATCHSIM_SIM_SIMULATOR_HH_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/error.hh"
#include "common/fault_inject.hh"
#include "common/sim_config.hh"
#include "core/ooo_core.hh"
#include "criticality/ddg.hh"
#include "power/power_model.hh"
#include "sim/run_guard.hh"
#include "sim/warm_state.hh"
#include "tact/tact.hh"
#include "trace/chunk_store.hh"
#include "trace/workload.hh"

namespace catchsim
{

class JsonValue;
class TraceStream;

/**
 * Per-window aggregation of a sampled run (SampleMode::Sampled). The
 * variance/min/max over window IPCs quantify how much confidence the
 * sample schedule earned — a high variance says the workload's phases
 * need a shorter interval (more windows) before the mean is trustworthy.
 */
struct SampleStats
{
    uint64_t windows = 0;      ///< measured detailed windows recorded
    uint64_t warmedInstrs = 0; ///< instrs processed by functional warming
    double ipcMean = 0;        ///< arithmetic mean of per-window IPCs
                               ///< (SimResult::ipc uses the unbiased
                               ///< ratio estimator instead)
    double ipcVariance = 0;    ///< population variance over window IPCs
    double ipcMin = 0;
    double ipcMax = 0;
};

/** Everything a bench might want from one run. */
struct SimResult
{
    std::string workload;
    std::string config;
    Category category = Category::Ispec;

    CoreStats core;
    double ipc = 0;

    HierarchyStats hier;
    CacheStats l1d;
    CacheStats l1i;
    CacheStats l2;
    bool hasL2 = false;
    CacheStats llc;
    DramStats dram;
    FrontendStats frontend;

    DdgStats ddg;
    CriticalTableStats criticalTable;
    uint32_t activeCriticalPcs = 0;
    TactStats tact;

    /** Fig 11: fraction of useful TACT prefetches saving >= 80% of the
     *  LLC latency, and the fraction saving >= 10%. */
    double timelinessAtLeast80 = 0;
    double timelinessAtLeast10 = 0;
    /** Fig 11: fraction of TACT prefetches served by the LLC. */
    double tactFromLlcFraction = 0;

    EnergyBreakdown energy;

    /** Set iff the run used SampleMode::Sampled; detailed-mode results
     *  carry neither the flag nor a "sampling" JSON object, keeping
     *  their export byte-identical to pre-sampling trees. */
    bool sampled = false;
    SampleStats sample;

    /** Machine-readable form of every counter above (one JSON object). */
    std::string toJson() const;

    /**
     * Parses a toJson() document back into a SimResult. Counters round
     * trip bitwise (exact u64, %.17g doubles), so a store-replayed
     * result compares identical to the original. Malformed or
     * wrong-shape input returns a trace-corrupt SimError.
     */
    static Expected<SimResult> fromJson(const std::string &json);
    static Expected<SimResult> fromJson(const JsonValue &v);
};

/**
 * How the simulator obtains its instruction trace.
 *
 * Streamed is the default: the workload generates chunk-sized batches
 * just ahead of the core (O(chunk) memory). Materialized generates the
 * whole trace up front (O(instrs) memory) and exists as the oracle the
 * determinism tests compare against — both modes produce bitwise
 * identical SimResults.
 */
enum class TraceMode : uint8_t
{
    Streamed,
    Materialized,
};

/**
 * Host-side phase timings and memory footprint for one run. Pure
 * host-profiling output (--profile, the perf bench): wall-clock values
 * never feed back into SimResult, which stays deterministic.
 *
 * In streamed mode trace generation is interleaved with simulation, so
 * traceGenSec overlaps warmupSec/measuredSec instead of preceding them;
 * in materialized mode the phases are disjoint.
 */
struct RunProfile
{
    double traceGenSec = 0;
    double warmupSec = 0;
    double measuredSec = 0;
    uint64_t peakRssBytes = 0;
    /** Chunk refills served by / missed in the chunk store for THIS
     *  run (zero when no store is attached). Per-run, never cumulative
     *  across a campaign, so store hit-rate is attributable per cell. */
    uint64_t storeHitChunks = 0;
    uint64_t storeMissChunks = 0;
    /** Warmed-state snapshot traffic for THIS run (zero when no
     *  warm-state store is attached or the run is ineligible — not
     *  sampled, not stream+chunk-store backed, or zero warmup). A hit
     *  skipped the global functional warmup; a miss warmed and
     *  published. Bytes counts the resident size (blob + page image)
     *  restored or published. */
    uint64_t warmStateHits = 0;
    uint64_t warmStateMisses = 0;
    uint64_t warmStateBytes = 0;
    /** Always 0: only the global-warmup boundary is memoized (every
     *  inter-window gap re-warms functionally). Kept because the
     *  end-to-end benchmark reads them. */
    uint64_t warmStateWindowHits = 0;
    uint64_t warmStateWindowMisses = 0;
};

/**
 * The simulated machine, for one core or N: one CacheHierarchy whose
 * shared LLC and DRAM serve cfg.numCores cores, each with its own
 * criticality detector (when the config needs one), TACT prefetchers
 * (when enabled) and OooCore, plus the one detailed loop that steps
 * them. Simulator runs it at N = 1; MpSimulator runs a mix on it with
 * N = the mix size.
 */
class Machine
{
  public:
    /** One core's trace: exactly one of the two is set. It also
     *  carries the functional memory TACT-Feeder reads values from. */
    struct CoreTrace
    {
        TraceStream *stream = nullptr;
        const Trace *trace = nullptr;
    };

    /**
     * Builds the hierarchy, then every core's detector, then every
     * core's TACT, then every core, bound to traces[core]. One trace
     * per configured core; the traces must outlive the machine.
     */
    Machine(const SimConfig &cfg, const std::vector<CoreTrace> &traces);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Steps every core to the end of its trace, lowest local clock
     * first, and resets the stats once when every core has passed
     * @p warmup, calling @p on_measure right after. Returns the
     * watchdog's error if @p budget trips.
     */
    std::optional<SimError> run(uint64_t warmup, const RunBudget &budget,
                                const std::function<void()> &on_measure =
                                    nullptr);

    CacheHierarchy &hierarchy() { return hierarchy_; }
    OooCore &core(CoreId c) { return *cores_[c]; }
    /** Null when the config needs no detector. */
    CriticalityDetector *detector(CoreId c) { return detectors_[c].get(); }
    /** Null when no TACT component is enabled. */
    Tact *tact(CoreId c) { return tacts_[c].get(); }

  private:
    CacheHierarchy hierarchy_;
    std::vector<std::unique_ptr<CriticalityDetector>> detectors_;
    std::vector<std::unique_ptr<Tact>> tacts_;
    std::vector<std::unique_ptr<OooCore>> cores_;
};

/** Runs one workload on one machine configuration. */
class Simulator
{
  public:
    /**
     * @param store in-memory chunk store feeding streamed-mode refills;
     *        defaults to the process-wide store (null unless enabled
     *        via CATCH_STORE). Results are bitwise-identical with or
     *        without one.
     * @param warm_store in-memory warmed-state snapshots: sampled runs
     *        with a chunk store restore the global-warmup state
     *        instead of re-deriving it functionally. Defaults to the
     *        process-wide store (null unless enabled via CATCH_STORE).
     *        Results are bitwise-identical with or without one.
     */
    explicit Simulator(const SimConfig &cfg,
                       TraceMode mode = TraceMode::Streamed,
                       ChunkStore *store = ChunkStore::global(),
                       WarmStateStore *warm_store = WarmStateStore::global());

    /**
     * @param instrs measured instructions
     * @param warmup instructions run before stats reset
     */
    SimResult run(Workload &workload, uint64_t instrs, uint64_t warmup);

    /**
     * Like run(), but polices @p budget with a Watchdog: a run that
     * overruns its cycle ceiling or stalls past the no-retire window
     * returns budget-exceeded instead of spinning forever. Successful
     * guarded runs are bitwise-identical to unguarded ones (the
     * watchdog only observes).
     * @param profile when non-null, filled with host phase timings and
     *        peak RSS; the simulated result is unaffected.
     */
    Expected<SimResult> runGuarded(Workload &workload, uint64_t instrs,
                                   uint64_t warmup,
                                   const RunBudget &budget,
                                   RunProfile *profile = nullptr);

  private:
    SimConfig cfg_;
    TraceMode mode_;
    ChunkStore *store_;
    WarmStateStore *warmStore_;
};

/** Convenience: build + run in one call. */
SimResult runWorkload(const SimConfig &cfg, const std::string &name,
                      uint64_t instrs, uint64_t warmup);

/**
 * Fault-contained single run: validates the config, resolves @p name
 * recoverably, applies any faults @p plan injects for (@p name,
 * @p attempt) — trace corruption, transient IO errors, an injected
 * hang driven through the real watchdog — and polices @p budget.
 * Worker exceptions (including injected ones) are NOT caught here;
 * the per-slot isolation in runWorkloadsIsolated converts them into
 * internal RunFailures.
 */
Expected<SimResult> runWorkloadGuarded(const SimConfig &cfg,
                                       const std::string &name,
                                       uint64_t instrs, uint64_t warmup,
                                       const RunBudget &budget,
                                       const FaultPlan &plan,
                                       unsigned attempt = 1,
                                       RunProfile *profile = nullptr,
                                       ChunkStore *store =
                                           ChunkStore::global(),
                                       WarmStateStore *warm_store =
                                           WarmStateStore::global());

} // namespace catchsim

#endif // CATCHSIM_SIM_SIMULATOR_HH_
