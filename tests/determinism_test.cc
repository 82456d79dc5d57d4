/**
 * @file
 * Bitwise reproducibility regression tests: the same (SimConfig,
 * workload, seed) must yield identical stats on every run — every
 * counter and every double, across representative kernel families
 * (pointer-chasing, streaming, branchy), both baseline and full-CATCH
 * configs, and for the MP simulator. Any nondeterminism here (an
 * unseeded RNG, iteration over pointer-keyed containers, uninitialised
 * state) would silently invalidate every paper figure and break the
 * parallel runner's determinism contract.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "sim/configs.hh"
#include "sim/mp_simulator.hh"
#include "sim/simulator.hh"
#include "sim_result_compare.hh"
#include "trace/suite.hh"

namespace catchsim
{
namespace
{

constexpr uint64_t kInstr = 35000;
constexpr uint64_t kWarm = 10000;

/** mcf = pointer chase, hpc.stream = streaming, gobmk = branchy. */
class DeterminismByKernel : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DeterminismByKernel, BaselineRunsAreBitwiseIdentical)
{
    SimResult a = runWorkload(baselineSkx(), GetParam(), kInstr, kWarm);
    SimResult b = runWorkload(baselineSkx(), GetParam(), kInstr, kWarm);
    expectBitwiseEqual(a, b);
}

TEST_P(DeterminismByKernel, FullCatchRunsAreBitwiseIdentical)
{
    // CATCH wires in the detector, the critical table and all four TACT
    // components — far more state that could go nondeterministic.
    SimConfig cfg = withCatch(noL2(baselineSkx(), 9728));
    SimResult a = runWorkload(cfg, GetParam(), kInstr, kWarm);
    SimResult b = runWorkload(cfg, GetParam(), kInstr, kWarm);
    expectBitwiseEqual(a, b);
}

INSTANTIATE_TEST_SUITE_P(RepresentativeKernels, DeterminismByKernel,
                         ::testing::Values("mcf", "hpc.stream", "gobmk"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n)
                                 if (!isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             return n;
                         });

/** FNV-1a over the full JSON export: one number that moves if any
 *  counter or double moves. */
uint64_t
goldenHash(const SimResult &r)
{
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : r.toJson()) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * The streamed trace pipeline must be a pure optimisation: for the same
 * (workload, config) the chunked stream and the materialize-everything
 * oracle yield bitwise-identical SimResults — same golden hash over the
 * whole JSON export, same counters. Covers both configs (baseline and
 * full CATCH, whose feeder reads the functional memory during the run).
 */
TEST_P(DeterminismByKernel, StreamedMatchesMaterializedOracleBaseline)
{
    auto wl_s = makeWorkload(GetParam());
    auto wl_m = makeWorkload(GetParam());
    Simulator streamed(baselineSkx(), TraceMode::Streamed);
    Simulator materialized(baselineSkx(), TraceMode::Materialized);
    SimResult a = streamed.run(*wl_s, kInstr, kWarm);
    SimResult b = materialized.run(*wl_m, kInstr, kWarm);
    EXPECT_EQ(goldenHash(a), goldenHash(b));
    expectBitwiseEqual(a, b);
}

TEST_P(DeterminismByKernel, StreamedMatchesMaterializedOracleFullCatch)
{
    SimConfig cfg = withCatch(noL2(baselineSkx(), 9728));
    auto wl_s = makeWorkload(GetParam());
    auto wl_m = makeWorkload(GetParam());
    Simulator streamed(cfg, TraceMode::Streamed);
    Simulator materialized(cfg, TraceMode::Materialized);
    SimResult a = streamed.run(*wl_s, kInstr, kWarm);
    SimResult b = materialized.run(*wl_m, kInstr, kWarm);
    EXPECT_EQ(goldenHash(a), goldenHash(b));
    expectBitwiseEqual(a, b);
}

TEST(Determinism, StreamedMatchesMaterializedAcrossQuickSuite)
{
    // Broader but shorter sweep under full CATCH: every quick-suite
    // kernel family, streamed vs oracle. Guards against a kernel whose
    // feeder-chased structures are (incorrectly) mutated after setup,
    // which only diverges once generation runs ahead of consumption.
    SimConfig cfg = withCatch(baselineSkx());
    for (const std::string &name : stQuickNames()) {
        auto wl_s = makeWorkload(name);
        auto wl_m = makeWorkload(name);
        Simulator streamed(cfg, TraceMode::Streamed);
        Simulator materialized(cfg, TraceMode::Materialized);
        SimResult a = streamed.run(*wl_s, 20000, 5000);
        SimResult b = materialized.run(*wl_m, 20000, 5000);
        EXPECT_EQ(goldenHash(a), goldenHash(b)) << name;
    }
}

TEST(Determinism, DifferentSeedVariantsDiffer)
{
    // Sanity check that the comparison has teeth: the "-2" suite
    // variants reseed the same kernel and must NOT reproduce the base
    // workload's counters.
    SimResult a = runWorkload(baselineSkx(), "mcf", kInstr, kWarm);
    SimResult b = runWorkload(baselineSkx(), "mcf-2", kInstr, kWarm);
    EXPECT_NE(a.core.cycles, b.core.cycles);
}

TEST(Determinism, MpRunsAreBitwiseIdentical)
{
    MpMix mix{"det.mix", {"mcf", "hpc.stream", "gobmk", "hmmer"}};
    std::array<double, 4> alone{};
    for (int c = 0; c < 4; ++c)
        alone[c] = runWorkload(baselineSkx(), mix.workloads[c], kInstr,
                               kWarm)
                       .ipc;
    MpSimulator sim_a(baselineSkx());
    MpSimulator sim_b(baselineSkx());
    MpResult a = sim_a.run(mix, kInstr, kWarm, alone);
    MpResult b = sim_b.run(mix, kInstr, kWarm, alone);
    EXPECT_EQ(a.weightedSpeedup, b.weightedSpeedup);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(a.ipc[c], b.ipc[c]) << "core " << c;
}

std::string
g17(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * Golden values for the MP path: per-core IPCs and the weighted speedup
 * of two short contended mixes over the shared LLC and DRAM, on the
 * exclusive baseline, on CATCH over a 9.5 MB two-level hierarchy, with
 * the detector alone, and with the heuristic detector under CATCH. The
 * last two were captured before MpSimulator and Simulator shared one
 * N-core engine.
 * MpRunsAreBitwiseIdentical above only compares a build with itself;
 * these pin the numbers, so any change to shared-cache or DRAM timing
 * shows up here.
 */
TEST(Determinism, MpGoldenPinsContendedMixes)
{
    SimConfig crit_only = baselineSkx();
    crit_only.criticality.enabled = true;
    SimConfig heuristic = withCatch(noL2(baselineSkx(), 9728));
    heuristic.criticality.kind = DetectorKind::Heuristic;
    const SimConfig configs[] = {baselineSkx(),
                                 withCatch(noL2(baselineSkx(), 9728)),
                                 crit_only, heuristic};
    const MpMix mixes[] = {
        {"rate4.libquantum",
         {"libquantum", "libquantum", "libquantum", "libquantum"}},
        {"rate4.mcf", {"mcf", "mcf", "mcf", "mcf"}},
    };
    struct Golden
    {
        std::array<const char *, 4> ipc;
        const char *weightedSpeedup;
    };
    // goldens[config][mix]
    const Golden goldens[4][2] = {
        {{{"0.18192235770875545", "0.18184940774819411",
           "0.18187681057662802", "0.18194956358097536"},
          "1.1015627948581583"},
         {{"0.061584019985663693", "0.062369458847586358",
           "0.061277081080499472", "0.061058261793403262"},
          "3.0356997217745465"}},
        {{{"0.66013392436102991", "0.66013392436102991",
           "0.66013392436102991", "0.66014070427582561"},
          "3.9999691887740672"},
         {{"0.13316921344210397", "0.13333155532526117",
           "0.13316921344210397", "0.133170484854711"},
          "4.403332723765006"}},
        // Criticality only: the detector trains but nothing consults
        // it, so the IPCs match the baseline's.
        {{{"0.18192235770875545", "0.18184940774819411",
           "0.18187681057662802", "0.18194956358097536"},
          "1.1015627948581583"},
         {{"0.061584019985663693", "0.062369458847586358",
           "0.061277081080499472", "0.061058261793403262"},
          "3.0356997217745465"}},
        {{{"0.66018647842663547", "0.66023355405889783",
           "0.66023355405889783", "0.66024032747920247"},
          "3.9998224680683663"},
         {{"0.13619752240769353", "0.13600929552944102",
           "0.13600929552944102", "0.13601053887375503"},
          "4.0934396389101071"}},
    };
    for (int k = 0; k < 4; ++k) {
        for (int m = 0; m < 2; ++m) {
            const MpMix &mix = mixes[m];
            SCOPED_TRACE(configs[k].name + " " + mix.name);
            // RATE-4: one solo run gives all four cores' alone IPC.
            const double solo =
                runWorkload(configs[k], mix.workloads[0], kInstr, kWarm)
                    .ipc;
            MpResult r = MpSimulator(configs[k]).run(
                mix, kInstr, kWarm, {solo, solo, solo, solo});
            for (int c = 0; c < 4; ++c)
                EXPECT_EQ(g17(r.ipc[c]), goldens[k][m].ipc[c])
                    << "core " << c;
            EXPECT_EQ(g17(r.weightedSpeedup),
                      goldens[k][m].weightedSpeedup);
        }
    }
}

TEST(Determinism, JsonExportIsStable)
{
    // The JSON document is byte-stable too (fixed field order, %.17g
    // doubles), so exports can be diffed across runs and machines.
    SimResult a = runWorkload(withCatch(baselineSkx()), "omnetpp",
                              kInstr, kWarm);
    SimResult b = runWorkload(withCatch(baselineSkx()), "omnetpp",
                              kInstr, kWarm);
    EXPECT_EQ(a.toJson(), b.toJson());
    EXPECT_FALSE(a.toJson().empty());
}

} // namespace
} // namespace catchsim
