/**
 * @file
 * Figure 13: contribution of each TACT component, added cumulatively on
 * the NoL2 + 6.5 MB LLC configuration.
 * Paper deltas: Code +0.75%, +Cross +3.67%, +Deep +5.89%, +Feeder +2.70%
 * (about +13% total over the no-L2 baseline).
 */

#include "bench/bench_common.hh"

using namespace catchsim;

int
main()
{
    banner("Figure 13", "per-component TACT gains over the NoL2 config");
    ExperimentEnv env = ExperimentEnv::fromEnvironment();

    SimConfig no_l2 = noL2(baselineSkx(), 6656);
    auto rb = runSuite(no_l2, env);
    size_t failed = failedRuns(rb);

    struct Step
    {
        const char *name;
        bool code, cross, deep, feeder;
        double paper_delta;
    };
    const Step steps[] = {
        {"Code", true, false, false, false, 0.0075},
        {"+CROSS", true, true, false, false, 0.0367},
        {"+Deep", true, true, true, false, 0.0589},
        {"+Feeder", true, true, true, true, 0.0270},
    };

    TablePrinter table({"cumulative config", "total gain",
                        "delta vs prev", "paper delta"});
    double prev = 1.0;
    for (const Step &s : steps) {
        SimConfig cfg = no_l2;
        cfg.name = s.name;
        cfg.criticality.enabled = true;
        cfg.tact.code = s.code;
        cfg.tact.cross = s.cross;
        cfg.tact.deepSelf = s.deep;
        cfg.tact.feeder = s.feeder;
        auto rs = runSuite(cfg, env);
        failed += failedRuns(rs);
        double total = overallGeomean(rb, rs);
        table.addRow({s.name, formatPercent(total - 1.0),
                      formatPercent(total - prev),
                      formatPercent(s.paper_delta)});
        prev = total;
    }
    table.print();
    return failed ? 1 : 0;
}
