/**
 * @file
 * Figure 16 (and the Section VI-E analysis): energy of the two-level
 * CATCH hierarchy (NoL2 + 9.5 MB LLC) vs the three-level baseline.
 * Paper: ~11% average energy savings, with ~37% lower cache traffic,
 * ~22% lower memory traffic, and several-fold more interconnect traffic.
 */

#include "bench/bench_common.hh"

using namespace catchsim;

int
main()
{
    banner("Figure 16", "energy of two-level CATCH vs 3-level baseline");
    ExperimentEnv env = ExperimentEnv::fromEnvironment();

    auto rb = runSuite(baselineSkx(), env);
    auto rc = runSuite(withCatch(noL2(baselineSkx(), 9728)), env);

    auto cache_ops = [](const SimResult &r) {
        uint64_t ops = r.l1d.readOps + r.l1d.writeOps + r.l1i.readOps +
                       r.l1i.writeOps + r.llc.readOps + r.llc.writeOps;
        if (r.hasL2)
            ops += r.l2.readOps + r.l2.writeOps;
        return ops;
    };

    TablePrinter table({"metric", "3-level base", "2-level CATCH",
                        "delta", "paper"});
    double eb = sumOver(rb, [](const SimResult &r) {
        return r.energy.total();
    });
    double ec = sumOver(rc, [](const SimResult &r) {
        return r.energy.total();
    });
    table.addRow({"energy (mJ, suite total)", formatDouble(eb, 1),
                  formatDouble(ec, 1), formatPercent(ec / eb - 1.0),
                  "-10.87%"});
    double cb = sumOver(rb, cache_ops), cc = sumOver(rc, cache_ops);
    table.addRow({"cache traffic (ops)", formatDouble(cb, 0),
                  formatDouble(cc, 0), formatPercent(cc / cb - 1.0),
                  "-37%"});
    double mb = sumOver(rb, [](const SimResult &r) {
        return r.hier.memTransfers;
    });
    double mc = sumOver(rc, [](const SimResult &r) {
        return r.hier.memTransfers;
    });
    table.addRow({"memory traffic (64B)", formatDouble(mb, 0),
                  formatDouble(mc, 0), formatPercent(mc / mb - 1.0),
                  "-22%"});
    double ib = sumOver(rb, [](const SimResult &r) {
        return r.hier.ringTransfers;
    });
    double ic = sumOver(rc, [](const SimResult &r) {
        return r.hier.ringTransfers;
    });
    // Appended, not "x" + string: GCC 12's -O3 flags the const char*
    // + std::string temporary with a false-positive -Wrestrict.
    std::string ratio = "x";
    ratio += formatDouble(ic / ib, 2);
    table.addRow({"interconnect traffic (64B)", formatDouble(ib, 0),
                  formatDouble(ic, 0), ratio, "~x5"});
    table.print();

    std::printf("\nper-category energy savings of two-level CATCH:\n");
    TablePrinter cats({"category", "energy delta", "paper"});
    std::map<Category, std::pair<double, double>> acc;
    for (size_t i = 0; i < rb.size(); ++i) {
        acc[rb[i].category].first += rb[i].energy.total();
        acc[rb[i].category].second += rc[i].energy.total();
    }
    const std::map<Category, const char *> paper = {
        {Category::Client, "-19.01%"}, {Category::Fspec, "-14.36%"},
        {Category::Hpc, "-5.88%"},     {Category::Ispec, "-10.15%"},
        {Category::Server, "-10.62%"},
    };
    for (auto &[cat, totals] : acc)
        cats.addRow({categoryName(cat),
                     formatPercent(totals.second / totals.first - 1.0),
                     paper.at(cat)});
    cats.print();
    return failedRuns(rb, rc) ? 1 : 0;
}
