/**
 * @file
 * Fig. 13 reproduction: miss rate (MPKI) for MESI, Protozoa-SW,
 * Protozoa-SW+MR, Protozoa-MW across all applications.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace protozoa;
using namespace protozoa::bench;

int
main()
{
    const double scale = envScale();
    std::printf("Fig. 13: miss rate in MPKI (scale=%.2f)\n\n", scale);

    const auto rows = sweepAllBenchmarks(scale);

    TextTable table({"app", "MESI", "SW", "SW+MR", "MW", "MW vs MESI"});
    std::vector<double> reduction_sw, reduction_mw, reduction_mr;
    std::vector<double> hot_sw, hot_mw, hot_mr;   // MPKI >= 6 subset

    for (const auto &row : rows) {
        const double mesi = row[ProtocolKind::MESI].mpki();
        const double sw = row[ProtocolKind::ProtozoaSW].mpki();
        const double mr = row[ProtocolKind::ProtozoaSWMR].mpki();
        const double mw = row[ProtocolKind::ProtozoaMW].mpki();
        table.addRow({row.bench, TextTable::fmt(mesi),
                      TextTable::fmt(sw), TextTable::fmt(mr),
                      TextTable::fmt(mw),
                      TextTable::pct(mesi > 0 ? (mesi - mw) / mesi : 0,
                                     1)});
        if (mesi > 0) {
            reduction_sw.push_back(sw / mesi);
            reduction_mr.push_back(mr / mesi);
            reduction_mw.push_back(mw / mesi);
            if (mesi >= 6.0) {
                hot_sw.push_back(sw / mesi);
                hot_mr.push_back(mr / mesi);
                hot_mw.push_back(mw / mesi);
            }
        }
    }
    table.print(std::cout);

    std::printf("\nMean miss-rate vs MESI: SW=%.0f%%  SW+MR=%.0f%%  "
                "MW=%.0f%%\n",
                100 * mean(reduction_sw), 100 * mean(reduction_mr),
                100 * mean(reduction_mw));
    std::printf("Miss-heavy subset (MESI MPKI >= 6, %zu apps): "
                "SW=%.0f%%  SW+MR=%.0f%%  MW=%.0f%%  (paper: SW 65%%, "
                "SW+MR/MW 40%% on its 10-app subset)\n",
                hot_sw.size(), 100 * mean(hot_sw), 100 * mean(hot_mr),
                100 * mean(hot_mw));
    std::printf("Paper reference: SW reduces misses 19%% on average; "
                "SW+MR and MW reduce them 36%% on average; "
                "linear-regression falls by 99%% and histogram by 71%% "
                "under MW.\n");
    return 0;
}
