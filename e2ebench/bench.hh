/**
 * @file
 * Shared pieces of the end-to-end benchmark program (bench_e2e): run
 * lengths, the report every workload fills in, the host-speed
 * calibration, and the entry points of workloads.cc and layers.cc.
 */

#ifndef CATCHSIM_E2EBENCH_BENCH_HH_
#define CATCHSIM_E2EBENCH_BENCH_HH_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"

namespace e2e
{

/** Run lengths and the pass floor of one benchmark scale. */
struct Scale
{
    uint64_t instrs = 0, warmup = 0;  ///< detailed and sampled-sweep cells
    uint64_t campaignInstrs = 0, campaignWarmup = 0; ///< Fig 10 runs
    uint64_t mpInstrs = 0, mpWarmup = 0; ///< per core, MP mixes
    unsigned minPasses = 1;           ///< timed passes, at least

    static Scale full();
    /** Tiny lengths for the ctest smoke run: exercises every path. */
    static Scale smoke();
};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 25; ///< timed passes run until this much has passed
    bool trace = false;  ///< per-layer run instead of the timed passes
    Scale scale = Scale::full();
    unsigned jobs = 1;   ///< worker threads of the closed-loop workloads
};

/** One simulated program: a suite kernel, possibly with another input
 *  set (generator seed) than the suite's own. */
struct Kernel
{
    std::string name;
    std::function<std::unique_ptr<catchsim::Workload>()> make;
};

/** A suite entry exactly as catchsim's registry builds it. */
Kernel suiteKernel(const std::string &name);

/** How a value depends on host speed, which decides its calibration. */
enum class Kind : uint8_t
{
    Time,  ///< host seconds (or ms, ns): multiplied by the host factor
    Rate,  ///< work per host second: divided by the host factor
    Count, ///< simulated or structural quantity: never calibrated
};

/** Probe scores taken around the timed work of one invocation. */
class Calibrator
{
  public:
    /** Runs the probe once and records its score. */
    void sample();

    /** Median probe score over reference: >1 means a faster host. */
    double factor() const;

    const std::vector<double> &scores() const { return scores_; }
    bool ok() const { return ok_; }

  private:
    std::vector<double> scores_;
    bool ok_ = true;
};

/** Metrics, operation counts and notes of one invocation. */
class Report
{
  public:
    struct Entry
    {
        std::string name;
        std::string unit;
        Kind kind = Kind::Count;
        std::vector<double> samples; ///< raw (uncalibrated) samples
        /** Power of the host factor applied: 1 for single-thread work,
         *  kParallelExponent for work spread over several threads. */
        double exponent = 1.0;
    };

    /**
     * The single-thread probe overstates how much a multi-threaded pass
     * slows: regressing log pass throughput on log probe score gave a
     * slope of 0.97 for detailed passes but 0.64 and 0.41 for campaign
     * and mp-mix passes, and over three ten-seed series the square root
     * of the factor kept their spread under 8% where the full factor
     * reached 10%.
     */
    static constexpr double kParallelExponent = 0.5;

    void add(const std::string &name, const std::string &unit, Kind kind,
             std::vector<double> samples, double exponent = 1.0);

    void
    count(const std::string &name, const std::string &unit, double v)
    {
        add(name, unit, Kind::Count, {v});
    }

    /** Records @p n operations, @p failed of which failed. */
    void
    ops(uint64_t n, uint64_t failed = 0)
    {
        attempted_ += n;
        failed_ += failed;
    }

    /** Records one failed check; the message goes to stderr and into
     *  the document. Does not touch the operation counts. */
    void failure(const std::string &what);

    /** Adds a line to the report, once however often it is noted. */
    void note(const std::string &line);
    void digest(uint64_t d) { digest_ = d; }

    /** Prints one line per metric, then the JSON document as the last
     *  line of stdout. */
    void print(const Options &o, const Calibrator &cal) const;

  private:
    std::vector<Entry> entries_;
    std::vector<std::string> notes_;
    std::vector<std::string> failures_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    uint64_t digest_ = 0;
};

// ---------------------------------------------------------------- helpers

double now();
double median(std::vector<double> v);

/** First and third quartiles, as Python's statistics.quantiles(v, n=4)
 *  computes them (the "exclusive" method). */
std::pair<double, double> quartiles(std::vector<double> v);

uint64_t fnv1a(const std::string &bytes, uint64_t h = 0xcbf29ce484222325ULL);

/** Invariant checks on a finished run; empty when all hold. */
std::string checkResult(const catchsim::SimResult &r, uint64_t instrs);

/**
 * The warmed-state store of the sampled sweeps, with a 512 MB budget
 * instead of the 128 MB default: one sweep's ten global snapshots need
 * about 235 MB, so at the default the LRU evicts each one before the
 * next sweep could restore it.
 */
std::unique_ptr<catchsim::WarmStateStore> sweepWarmStore();

/** One streamed single-core run; exceptions become errors. */
catchsim::Expected<catchsim::SimResult>
runCell(const Kernel &k, const catchsim::SimConfig &cfg, uint64_t instrs,
        uint64_t warmup, catchsim::ChunkStore *chunks = nullptr,
        catchsim::WarmStateStore *warm = nullptr,
        catchsim::RunProfile *profile = nullptr);

// -------------------------------------------------------------- workloads

/** The kernels whose layers the traced run profiles for o.workload,
 *  with the two configurations compared and the run lengths. */
struct ProfileSet
{
    std::vector<Kernel> kernels;
    catchsim::SimConfig base;  ///< reported as ".skx"
    catchsim::SimConfig catchCfg; ///< reported as ".catch"
    uint64_t instrs = 0, warmup = 0;
};

ProfileSet profileSet(const Options &o);

/** One traced pass of the workload itself, for the runner and result
 *  metrics: per-operation seconds, pass wall time and worker count,
 *  plus the CATCH-over-baseline gain. */
struct ProfiledPass
{
    std::vector<double> opSeconds;
    double wallSeconds = 0;
    unsigned jobs = 1;
    unsigned opThreads = 1; ///< threads running while opSeconds were timed
    double catchGain = 0; ///< speedup - 1
    uint64_t ops = 0, failed = 0;
    std::vector<std::string> extras; ///< workload-specific report lines
};

ProfiledPass profiledPass(const Options &o, Report &rep);

/** Runs the timed (tracing-off) workload. */
void runTimed(const Options &o, Report &rep, Calibrator &cal);

/** Runs the traced per-layer profile. */
void runLayers(const Options &o, Report &rep, Calibrator &cal);

} // namespace e2e

#endif // CATCHSIM_E2EBENCH_BENCH_HH_
