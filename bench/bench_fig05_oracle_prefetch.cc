/**
 * @file
 * Figure 5: the criticality-aware oracle prefetcher. Critical loads that
 * miss the L1 but would hit the L2/LLC are served at L1 latency (a
 * zero-time prefetch), sweeping the number of tracked critical PCs.
 * Hardware prefetchers are off and code is assumed L1-resident, as in
 * the paper. Paper: +5.49% at 32 PCs rising to +6.58% for all PCs, with
 * only 14-17% of L1 misses converted; NoL2+2048PCs lands at +6.21%,
 * demonstrating that the L2 is redundant under the oracle.
 */

#include "bench/bench_common.hh"

using namespace catchsim;

namespace
{

SimConfig
oracleCfg(const SimConfig &base, uint32_t pc_limit, const char *name)
{
    SimConfig cfg = base;
    cfg.name = name;
    cfg.l1StridePrefetcher = false;
    cfg.l2StreamPrefetcher = false;
    cfg.oracle.oraclePrefetch = true;
    cfg.oracle.oraclePrefetchPcLimit = pc_limit;
    cfg.oracle.oracleCodeInL1 = true;
    if (pc_limit)
        cfg.criticality.enabled = true;
    return cfg;
}

} // namespace

int
main()
{
    banner("Figure 5", "criticality-aware oracle prefetch vs tracked PCs");
    ExperimentEnv env = ExperimentEnv::fromEnvironment();

    // The baseline for this study also has prefetchers off + ideal code.
    SimConfig base = baselineSkx();
    base.l1StridePrefetcher = false;
    base.l2StreamPrefetcher = false;
    base.oracle.oracleCodeInL1 = true;
    auto rb = runSuite(base, env);
    size_t failed = failedRuns(rb);

    struct Case
    {
        const char *name;
        uint32_t pcs; ///< 0 = all PCs
        bool no_l2;
        double paper;
    };
    const Case cases[] = {
        {"32 PC", 32, false, 0.0549},    {"64 PC", 64, false, 0.0561},
        {"128 PC", 128, false, 0.0576},  {"1024 PC", 1024, false, 0.0606},
        {"2048 PC", 2048, false, 0.0611}, {"All PC", 0, false, 0.0658},
        {"NoL2+2048 PC", 2048, true, 0.0621},
    };

    TablePrinter table({"tracked PCs", "perf impact",
                        "%L1-misses converted", "paper"});
    for (const Case &c : cases) {
        SimConfig cfg = c.no_l2 ? noL2(base, 6656) : base;
        cfg = oracleCfg(cfg, c.pcs, c.name);
        auto rs = runSuite(cfg, env);
        failed += failedRuns(rs);
        double converted =
            sumOver(rs, [](const SimResult &r) {
                return r.hier.oracleConverted;
            }) /
            sumOver(rs, [](const SimResult &r) {
                return r.hier.oracleConverted + r.hier.loads -
                       r.hier.loadHits[0];
            });
        table.addRow({c.name,
                      formatPercent(overallGeomean(rb, rs) - 1.0),
                      formatPercent(converted),
                      formatPercent(c.paper)});
    }
    table.print();
    return failed ? 1 : 0;
}
