/**
 * @file
 * Host-side wall-clock and resource probes, for profiling the simulator
 * itself (--profile, the perf bench). These values describe the HOST
 * run, never the simulated machine: nothing simulated may depend on
 * them, which is why this is the one file waived from the determinism
 * rule's clock ban.
 */

#ifndef CATCHSIM_COMMON_HOST_CLOCK_HH_
#define CATCHSIM_COMMON_HOST_CLOCK_HH_

#include <cstdint>
#include <ctime>

#include <sys/resource.h>

namespace catchsim
{

/** Monotonic host seconds (arbitrary epoch; use differences only). */
inline double
hostSeconds()
{
    timespec ts = {};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Peak resident set size of this process so far, in bytes. */
inline uint64_t
peakRssBytes()
{
    rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

} // namespace catchsim

#endif // CATCHSIM_COMMON_HOST_CLOCK_HH_
