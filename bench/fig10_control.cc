/**
 * @file
 * Fig. 10 reproduction: control bytes sent/received at the L1s by
 * message class (REQ / FWD / INV / ACK / NACK, plus the data-message
 * headers the paper folds into "message and data identifiers"),
 * normalized to each application's MESI *total* traffic.
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
    std::printf("Fig. 10: control traffic by class, %% of MESI total "
                "(scale=%.2f)\n\n", scale);

    const auto rows = sweepAllBenchmarks(scale);

    TextTable table({"app", "proto", "REQ", "FWD", "INV", "ACK", "NACK",
                     "DHDR", "ctrl-total"});
    std::vector<double> ctrlBytes[4];

    for (const auto &row : rows) {
        const double base =
            trafficBreakdown(row[ProtocolKind::MESI]).total();
        for (ProtocolKind kind : kAllProtocols) {
            const L1Stats &l1 = row[kind].l1;
            std::vector<std::string> cells = {axisName(row.bench),
                                              protocolTraits(kind).label};
            for (unsigned c = 0; c < kNumCtrlClasses; ++c) {
                cells.push_back(TextTable::fmt(
                    100.0 * static_cast<double>(l1.ctrlBytes[c]) / base,
                    2));
            }
            cells.push_back(TextTable::fmt(
                100.0 * static_cast<double>(l1.ctrlBytesTotal()) / base,
                2));
            table.addRow(std::move(cells));
            ctrlBytes[static_cast<unsigned>(kind)].push_back(
                static_cast<double>(l1.ctrlBytesTotal()));
        }
    }
    table.print(std::cout);

    // Paper summary: control traffic of SW / SW+MR / MW relative to
    // MESI's control traffic (90% / 86% / 82%).
    std::printf("\nMean control bytes vs MESI control:");
    const auto &mesi = ctrlBytes[0];
    for (ProtocolKind kind : kAllProtocols) {
        const auto &v = ctrlBytes[static_cast<unsigned>(kind)];
        std::vector<double> ratios;
        for (std::size_t i = 0; i < v.size(); ++i)
            ratios.push_back(mesi[i] > 0 ? v[i] / mesi[i] : 1.0);
        std::printf("  %s=%.0f%%", protocolTraits(kind).label,
                    100 * mean(ratios));
    }
    std::printf("\nPaper reference: SW 90%%, SW+MR 86%%, MW 82%%.\n");
    return 0;
}
