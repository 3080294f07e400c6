/**
 * @file
 * Ablation (paper Sec. 6, "3-hop vs 4-hop"): enable direct
 * owner-to-requester forwarding and measure the latency benefit on
 * sharing-heavy workloads. Falls back to 4-hop whenever the owner
 * cannot cover the requested words — the corner case the paper calls
 * out for Protozoa's partial-overlap forwards.
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
    const char *apps[] = {"cholesky", "water", "x264", "histogram",
                          "raytrace", "linear-regression"};

    std::printf("Ablation: 3-hop direct forwarding (scale=%.2f)\n\n",
                scale);

    TextTable table({"app", "proto", "3hop-xfers", "cycles-4hop",
                     "cycles-3hop", "speedup", "traffic-ratio"});

    for (const char *name : apps) {
        for (auto kind : {ProtocolKind::MESI, ProtocolKind::ProtozoaMW}) {
            RunStats runs[2];
            for (int mode = 0; mode < 2; ++mode) {
                std::fprintf(stderr, "  running %-18s %-5s %u-hop...\n",
                             name, protocolTraits(kind).label,
                             mode ? 3 : 4);
                SystemConfig cfg;
                cfg.protocol = kind;
                cfg.threeHop = mode == 1;
                runs[mode] = runBenchmark(cfg, name, scale);
            }
            const double t4 =
                trafficBreakdown(runs[0]).total();
            const double t3 =
                trafficBreakdown(runs[1]).total();
            table.addRow(
                {name, protocolTraits(kind).label,
                 std::to_string(runs[1].dir.threeHopDirect),
                 std::to_string(runs[0].cycles),
                 std::to_string(runs[1].cycles),
                 TextTable::fmt(static_cast<double>(runs[0].cycles) /
                                    static_cast<double>(runs[1].cycles)),
                 TextTable::fmt(t3 / t4)});
        }
    }

    table.print(std::cout);
    std::printf("\nExpectation: migratory and producer/consumer "
                "sharing benefit most (the extra hop sat on the\n"
                "critical path); traffic is near-neutral because the "
                "directory still collects writebacks.\n");
    return 0;
}
