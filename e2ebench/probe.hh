/**
 * @file
 * Host-speed probe used to calibrate every host time the benchmark
 * reports.
 *
 * Shared hosts drift by tens of percent over minutes: other tenants
 * take cache, memory bandwidth and sibling hyperthreads. The probe is a
 * miniature of the simulator's hottest operation — set-associative tag
 * lookups with LRU stamps over a 4 MB array, with data-dependent
 * branches — so it slows under contention about as much as the
 * simulator does. Over 140 interleaved probe/pass pairs on the reference
 * host its log-log slope against detailed-pass throughput was 0.97; a
 * 2 MB random read-modify-write loop had 0.53 and a multiply chain 3.0,
 * and calibrating with either made multi-threaded passes noisier than
 * raw. A calibrated time is raw x (probe score now / kProbeRefMops),
 * i.e. the time the work would have taken on the reference host; a
 * calibrated rate divides by the same factor.
 *
 * The probe deliberately links nothing from the simulator: a change
 * that speeds up the simulator must not also speed up the yardstick.
 */

#ifndef CATCHSIM_E2EBENCH_PROBE_HH_
#define CATCHSIM_E2EBENCH_PROBE_HH_

#include <cstdint>

namespace e2e
{

/**
 * Reference probe score in million lookups per second: the median of
 * 142 probes on the host the benchmark's bounds were set on (4-vCPU
 * Intel Xeon VM, x86-64 Linux, GCC 12 -O3).
 */
constexpr double kProbeRefMops = 43.0;

struct ProbeSample
{
    double mops = 0;       ///< loop iterations per second, in millions
    bool checksumOk = false; ///< the loop computed its expected result
};

/** Runs the probe once (about 0.12 s on the reference host). */
ProbeSample runProbe();

} // namespace e2e

#endif // CATCHSIM_E2EBENCH_PROBE_HH_
