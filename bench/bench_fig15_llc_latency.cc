/**
 * @file
 * Figure 15: sensitivity of the no-L2 configurations to LLC latency
 * (+6 and +12 cycles, as in longer-interconnect server parts).
 * Paper: NoL2+6.5MB degrades -7.79% -> -9.71% -> -11.50%;
 *        NoL2+9.5MB+CATCH degrades +7.23% -> +5.42% -> +3.71%.
 * Shape: each 6 LLC cycles costs the no-L2 configs about 2%.
 */

#include "bench/bench_common.hh"

using namespace catchsim;

int
main()
{
    banner("Figure 15", "sensitivity to LLC hit latency");
    ExperimentEnv env = ExperimentEnv::fromEnvironment();

    auto rb = runSuite(baselineSkx(), env);
    size_t failed = failedRuns(rb);

    const double paper_no_l2[3] = {-0.0779, -0.0971, -0.1150};
    const double paper_catch[3] = {0.0723, 0.0542, 0.0371};

    TablePrinter table({"config", "LLC+0", "LLC+6", "LLC+12",
                        "paper(+0/+6/+12)"});
    for (int variant = 0; variant < 2; ++variant) {
        bool with_catch = variant == 1;
        std::vector<std::string> row = {
            with_catch ? "NoL2+9.5MB+CATCH" : "NoL2+6.5MB"};
        for (uint32_t add : {0u, 6u, 12u}) {
            SimConfig cfg = with_catch
                                ? withCatch(noL2(baselineSkx(), 9728))
                                : noL2(baselineSkx(), 6656);
            cfg.name += "+llc" + std::to_string(add);
            cfg.oracle.latAddLlc = add;
            auto rs = runSuite(cfg, env);
            failed += failedRuns(rs);
            row.push_back(formatPercent(overallGeomean(rb, rs) - 1.0));
        }
        const double *paper = with_catch ? paper_catch : paper_no_l2;
        row.push_back(formatPercent(paper[0]) + " / " +
                      formatPercent(paper[1]) + " / " +
                      formatPercent(paper[2]));
        table.addRow(row);
    }
    table.print();
    return failed ? 1 : 0;
}
