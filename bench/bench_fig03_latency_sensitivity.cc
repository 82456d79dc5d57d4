/**
 * @file
 * Figure 3: sensitivity to +1/+2/+3 cycles of latency at the L1, L2 and
 * LLC of the three-level baseline. Paper geomeans:
 *   L1: -2.40% / -4.78% / -7.16%
 *   L2: -0.49% / -0.91% / -1.35%
 *   LLC: -0.24% / -0.41% / -0.58%
 * The shape to reproduce: steep L1 sensitivity, an order of magnitude
 * flatter at the L2, flatter still at the LLC.
 */

#include "bench/bench_common.hh"

using namespace catchsim;

int
main()
{
    banner("Figure 3", "impact of +1/+2/+3 cycle latency at L1/L2/LLC");
    ExperimentEnv env = ExperimentEnv::fromEnvironment();

    SimConfig base = baselineSkx();
    auto rb = runSuite(base, env);
    size_t failed = failedRuns(rb);

    const double paper[3][3] = {
        {-0.0240, -0.0478, -0.0716},
        {-0.0049, -0.0091, -0.0135},
        {-0.0024, -0.0041, -0.0058},
    };
    const char *levels[3] = {"L1", "L2", "LLC"};

    TablePrinter table({"level", "+1 cyc", "+2 cyc", "+3 cyc",
                        "paper(+1/+2/+3)"});
    for (int lvl = 0; lvl < 3; ++lvl) {
        std::vector<std::string> row = {levels[lvl]};
        for (uint32_t add = 1; add <= 3; ++add) {
            SimConfig cfg = base;
            cfg.name = std::string(levels[lvl]) + "+" +
                       std::to_string(add);
            if (lvl == 0)
                cfg.oracle.latAddL1 = add;
            else if (lvl == 1)
                cfg.oracle.latAddL2 = add;
            else
                cfg.oracle.latAddLlc = add;
            auto rs = runSuite(cfg, env);
            failed += failedRuns(rs);
            row.push_back(formatPercent(overallGeomean(rb, rs) - 1.0));
        }
        row.push_back(formatPercent(paper[lvl][0]) + " / " +
                      formatPercent(paper[lvl][1]) + " / " +
                      formatPercent(paper[lvl][2]));
        table.addRow(row);
    }
    table.print();
    return failed ? 1 : 0;
}
