/**
 * @file
 * Multi-programmed simulator (Section VI-C): each core of the mix runs
 * its own trace over private L1s (+L2) with a shared LLC and DRAM, on
 * the N-core Machine (sim/simulator.hh) with N = the mix size. The
 * metric is weighted speedup: sum over cores of IPC_mp / IPC_alone,
 * with the IPC_alone values the caller passes (bench_fig14_mp and
 * e2ebench pass the baselineSkx() solos for every config).
 */

#ifndef CATCHSIM_SIM_MP_SIMULATOR_HH_
#define CATCHSIM_SIM_MP_SIMULATOR_HH_

#include <array>
#include <string>

#include "common/sim_config.hh"
#include "trace/suite.hh"

namespace catchsim
{

struct MpResult
{
    std::string mix;
    std::string config;
    std::array<double, 4> ipc{};      ///< per-core MP IPC
    std::array<double, 4> ipcAlone{}; ///< solo IPC passed to run()
    double weightedSpeedup = 0;
};

class MpSimulator
{
  public:
    explicit MpSimulator(const SimConfig &cfg);

    /**
     * Runs a 4-way mix.
     * @param ipc_alone solo IPCs of the four workloads, the weighted
     *        speedup's denominators (callers memoise these across mixes)
     */
    MpResult run(const MpMix &mix, uint64_t instrs_per_core,
                 uint64_t warmup, const std::array<double, 4> &ipc_alone);

  private:
    SimConfig cfg_;
};

} // namespace catchsim

#endif // CATCHSIM_SIM_MP_SIMULATOR_HH_
