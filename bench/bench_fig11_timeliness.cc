/**
 * @file
 * Figure 11: timeliness of the inter-cache TACT prefetches, measured on
 * the two-level CATCH configuration (NoL2 + 9.5 MB LLC + CATCH).
 * Paper: ~88% of TACT prefetches are served by the LLC, and >85% of
 * those save more than 80% of the LLC hit latency for the subsequent
 * critical load. Prefetch fills into the L1 rise by only ~9%.
 */

#include "bench/bench_common.hh"

using namespace catchsim;

int
main()
{
    banner("Figure 11", "timeliness of inter-cache TACT prefetching");
    ExperimentEnv env = ExperimentEnv::fromEnvironment();

    auto rs = runSuite(withCatch(noL2(baselineSkx(), 9728)), env);

    // Per-category aggregates, as the paper plots.
    std::map<Category, std::array<double, 5>> agg; // sums per category
    std::array<double, 5> total{};
    for (const auto &r : rs) {
        uint64_t located = r.hier.tactPfFromL2 + r.hier.tactPfFromLlc +
                           r.hier.tactPfFromMem;
        auto &a = agg[r.category];
        a[0] += static_cast<double>(r.hier.tactPfFromLlc);
        a[1] += static_cast<double>(located);
        a[2] += r.timelinessAtLeast80 *
                static_cast<double>(r.hier.tactUsefulHits);
        a[3] += r.timelinessAtLeast10 *
                static_cast<double>(r.hier.tactUsefulHits);
        a[4] += static_cast<double>(r.hier.tactUsefulHits);
        for (int k = 0; k < 5; ++k)
            total[k] += a[k] - (agg[r.category][k] - a[k]) * 0;
    }
    total = {};
    for (auto &[cat, a] : agg)
        for (int k = 0; k < 5; ++k)
            total[k] += a[k];

    TablePrinter table({"category", "%TACT pf from LLC",
                        "%saving >=80% LLC lat", "%saving >=10%"});
    auto row = [&](const std::string &name,
                   const std::array<double, 5> &a) {
        table.addRow({name,
                      a[1] ? formatPercent(a[0] / a[1]) : "n/a",
                      a[4] ? formatPercent(a[2] / a[4]) : "n/a",
                      a[4] ? formatPercent(a[3] / a[4]) : "n/a"});
    };
    for (auto &[cat, a] : agg)
        row(categoryName(cat), a);
    row("ALL", total);
    table.addRow({"paper (ALL)", "~88%", ">85%", "~95%"});
    table.print();
    return failedRuns(rs) ? 1 : 0;
}
