/**
 * @file
 * Fig. 9 reproduction: bytes sent/received at the L1s, split into
 * Control / Unused-data / Used-data, for MESI, Protozoa-SW,
 * Protozoa-SW+MR and Protozoa-MW, normalized to each application's
 * MESI total (=100%).
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
    std::printf("Fig. 9: L1 traffic breakdown, %% of MESI total "
                "(scale=%.2f)\n\n", scale);

    const auto rows = sweepAllBenchmarks(scale);

    TextTable table({"app", "proto", "ctrl%", "unused%", "used%",
                     "total%"});
    std::vector<double> totals[4];

    for (const auto &row : rows) {
        const double base =
            trafficBreakdown(row[ProtocolKind::MESI]).total();
        for (ProtocolKind kind : kAllProtocols) {
            const TrafficBreakdown tb = trafficBreakdown(row[kind]);
            table.addRow({axisName(row.bench), protocolTraits(kind).label,
                          TextTable::fmt(100 * tb.control / base, 1),
                          TextTable::fmt(100 * tb.unusedData / base, 1),
                          TextTable::fmt(100 * tb.usedData / base, 1),
                          TextTable::fmt(100 * tb.total() / base, 1)});
            totals[static_cast<unsigned>(kind)].push_back(tb.total() /
                                                          base);
        }
    }
    table.print(std::cout);

    std::printf("\nGeomean total traffic vs MESI:");
    for (ProtocolKind kind : kAllProtocols) {
        std::printf("  %s=%.0f%%", protocolTraits(kind).label,
                    100 * geomean(totals[static_cast<unsigned>(kind)]));
    }
    std::printf("\nPaper reference: SW 74%%, SW+MR 66%%, MW 63%% "
                "(reductions of 26%%/34%%/37%%).\n");
    return 0;
}
