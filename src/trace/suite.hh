/**
 * @file
 * The workload suites: a 70-entry single-thread list spanning the paper's
 * five categories (client, FSPEC, HPC, ISPEC, server) and 60 four-way
 * multi-programmed mixes (30 RATE-4 style, 30 random), mirroring the
 * paper's evaluation methodology (Section V).
 */

#ifndef CATCHSIM_TRACE_SUITE_HH_
#define CATCHSIM_TRACE_SUITE_HH_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "trace/workload.hh"

namespace catchsim
{

/** Names of all single-thread workloads, grouped by category. */
std::vector<std::string> stSuiteNames();

/** Subset of stSuiteNames() used by quick smoke runs. */
std::vector<std::string> stQuickNames();

/**
 * Instantiates a workload by suite name. Unknown names return a config
 * SimError that lists every valid name; the CLI surfaces it once with
 * exit code 2, the suite executor records it as a per-run failure.
 * The workload's image key is @p name, so its starts adopt the
 * process-wide post-setup image (trace/kernel_image.hh).
 */
Expected<std::unique_ptr<Workload>> findWorkload(const std::string &name);

/**
 * Instantiates a workload known to exist (tests, benches, internal
 * callers); asserts on unknown names. Anything handling user input
 * must use findWorkload instead.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** A four-way multi-programmed mix. */
struct MpMix
{
    std::string name;
    std::array<std::string, 4> workloads;
};

/** The 60 four-way MP mixes (30 RATE-4, 30 random). */
std::vector<MpMix> mpMixes();

} // namespace catchsim

#endif // CATCHSIM_TRACE_SUITE_HH_
