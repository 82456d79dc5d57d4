/**
 * @file
 * Shared helpers for the figure-reproduction benches: each bench prints
 * its table with the paper's published number next to ours so the shape
 * comparison is immediate, and exits 1 when any of its runs failed or
 * timed out (catchsim's rule), 0 otherwise.
 */

#ifndef CATCHSIM_BENCH_BENCH_COMMON_HH_
#define CATCHSIM_BENCH_BENCH_COMMON_HH_

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"

namespace catchsim
{

/** Prints the standard bench banner. */
inline void
banner(const char *fig, const char *what)
{
    std::printf("==============================================================\n");
    std::printf("%s: %s\n", fig, what);
    std::printf("==============================================================\n");
}

/** Runs of @p suites that failed or timed out: runSuite leaves such a
 *  run's IPC 0. */
template <typename... Suites>
size_t
failedRuns(const Suites &...suites)
{
    auto failed = [](const std::vector<SimResult> &rs) {
        return static_cast<size_t>(
            std::count_if(rs.begin(), rs.end(),
                          [](const SimResult &r) { return !(r.ipc > 0.0); }));
    };
    return (failed(suites) + ...);
}

/**
 * Prints per-category + overall geomean speedups of each test suite over
 * the base suite, one column per config, with a paper row underneath.
 * Rows are keyed by category name: a config whose failed runs emptied a
 * category prints "n/a" there, and a note under the table says how many
 * workloads each config left out.
 */
inline void
printCategoryTable(const std::vector<SimResult> &base,
                   const std::vector<std::vector<SimResult>> &tests,
                   const std::vector<std::string> &test_names,
                   const std::vector<double> &paper_geomeans)
{
    std::vector<std::string> header = {"category"};
    for (const auto &n : test_names)
        header.push_back(n);
    TablePrinter table(header);

    // Base against itself yields every row any test can have, in order.
    std::vector<std::map<std::string, double>> cols;
    for (const auto &t : tests) {
        auto g = categoryGeomeans(base, t);
        cols.emplace_back(g.begin(), g.end());
    }
    for (const auto &row : categoryGeomeans(base, base)) {
        std::vector<std::string> cells = {row.first};
        for (const auto &col : cols) {
            auto it = col.find(row.first);
            cells.push_back(it == col.end()
                                ? "n/a"
                                : formatPercent(it->second - 1.0));
        }
        table.addRow(cells);
    }
    if (!paper_geomeans.empty()) {
        std::vector<std::string> cells = {"paper GeoMean"};
        for (double p : paper_geomeans)
            cells.push_back(formatPercent(p));
        table.addRow(cells);
    }
    table.print();

    for (size_t c = 0; c < tests.size(); ++c) {
        size_t left_out = 0;
        for (size_t i = 0; i < base.size(); ++i)
            left_out += !(base[i].ipc > 0.0 && tests[c][i].ipc > 0.0);
        if (left_out)
            std::printf("%s: %zu of %zu workloads left out (a run "
                        "failed)\n",
                        test_names[c].c_str(), left_out, base.size());
    }
}

} // namespace catchsim

#endif // CATCHSIM_BENCH_BENCH_COMMON_HH_
