/**
 * @file
 * Fig. 15 reproduction: interconnect dynamic energy proxy — traffic
 * in flit-hops across the 4x4 mesh, normalized to MESI.
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
    std::printf("Fig. 15: flit-hops (network dynamic energy proxy) "
                "relative to MESI (scale=%.2f)\n\n", scale);

    const auto rows = sweepAllBenchmarks(scale);

    TextTable table({"app", "SW", "SW+MR", "MW"});
    std::vector<double> r_sw, r_mr, r_mw;

    for (const auto &row : rows) {
        const double mesi =
            static_cast<double>(row[ProtocolKind::MESI].net.flitHops);
        const double sw =
            static_cast<double>(
                row[ProtocolKind::ProtozoaSW].net.flitHops) /
            mesi;
        const double mr =
            static_cast<double>(
                row[ProtocolKind::ProtozoaSWMR].net.flitHops) /
            mesi;
        const double mw =
            static_cast<double>(
                row[ProtocolKind::ProtozoaMW].net.flitHops) /
            mesi;
        table.addRow({row.bench, TextTable::fmt(sw),
                      TextTable::fmt(mr), TextTable::fmt(mw)});
        r_sw.push_back(sw);
        r_mr.push_back(mr);
        r_mw.push_back(mw);
    }
    table.print(std::cout);

    std::printf("\nMean flit-hops vs MESI: SW=%.0f%%  SW+MR=%.0f%%  "
                "MW=%.0f%%\n",
                100 * mean(r_sw), 100 * mean(r_mr), 100 * mean(r_mw));
    std::printf("Paper reference: SW eliminates 33%%, SW+MR 38%%, and "
                "MW 49%% of flit-hops on average.\n");
    return 0;
}
