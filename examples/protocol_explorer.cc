/**
 * @file
 * Protocol explorer: run any paper benchmark under any protocol and
 * print the full statistics panel the evaluation figures are built
 * from — traffic breakdown, control classes, block-size histogram,
 * and the directory's Owned-state census.
 *
 * Usage:
 *   ./protocol_explorer [benchmark] [mesi|sw|swmr|mw] [scale]
 *   ./protocol_explorer                 # histogram under MW
 *   ./protocol_explorer canneal sw 0.5
 */

#include <cstdio>
#include <cstdlib>

#include "protozoa/protozoa.hh"

using namespace protozoa;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "histogram";
    const auto protocol =
        argc > 2 ? parseProtocol(argv[2]) : ProtocolKind::ProtozoaMW;
    if (!protocol)
        fatal("unknown protocol '%s' (use %s)", argv[2],
              protocolKeyList().c_str());
    const double scale = argc > 3 ? std::atof(argv[3]) : envScale();

    SystemConfig cfg;
    cfg.protocol = *protocol;

    const BenchSpec &spec = findBenchmark(bench);
    std::printf("benchmark : %s (%s suite)\n", spec.name.c_str(),
                spec.suite.c_str());
    std::printf("protocol  : %s\n", protocolName(*protocol));
    std::printf("machine   : %u cores, %u B regions, %u-set Amoeba "
                "L1, %u-tile L2\n\n",
                cfg.numCores, cfg.regionBytes, cfg.l1Sets, cfg.l2Tiles);

    System sys(cfg, spec.gen(cfg, scale));
    sys.run();
    const RunStats stats = sys.report();

    std::printf("=== core ===\n");
    std::printf("instructions   %12llu\n",
                static_cast<unsigned long long>(stats.instructions));
    std::printf("cycles         %12llu\n",
                static_cast<unsigned long long>(stats.cycles));
    std::printf("loads/stores   %12llu / %llu\n",
                static_cast<unsigned long long>(stats.l1.loads),
                static_cast<unsigned long long>(stats.l1.stores));
    std::printf("L1 misses      %12llu  (%.2f MPKI)\n",
                static_cast<unsigned long long>(stats.l1.misses),
                stats.mpki());

    const TrafficBreakdown tb = trafficBreakdown(stats);
    std::printf("\n=== L1 traffic (Fig. 9 categories) ===\n");
    std::printf("used data      %12.0f B  (%4.1f%%)\n", tb.usedData,
                100 * tb.usedData / tb.total());
    std::printf("unused data    %12.0f B  (%4.1f%%)\n", tb.unusedData,
                100 * tb.unusedData / tb.total());
    std::printf("control        %12.0f B  (%4.1f%%)\n", tb.control,
                100 * tb.control / tb.total());

    std::printf("\n=== control classes (Fig. 10) ===\n");
    for (unsigned c = 0; c < kNumCtrlClasses; ++c) {
        std::printf("%-5s %12llu B\n",
                    ctrlClassName(static_cast<CtrlClass>(c)),
                    static_cast<unsigned long long>(
                        stats.l1.ctrlBytes[c]));
    }

    std::printf("\n=== block sizes fetched (Fig. 12) ===\n");
    for (unsigned w = 1; w <= cfg.regionWords(); ++w) {
        std::printf("%u words  %12llu blocks\n", w,
                    static_cast<unsigned long long>(
                        stats.l1.blockSizeHist[w]));
    }

    std::printf("\n=== directory (Fig. 11) ===\n");
    std::printf("requests              %12llu\n",
                static_cast<unsigned long long>(stats.dir.requests));
    std::printf("owned: 1 owner        %12llu\n",
                static_cast<unsigned long long>(
                    stats.dir.ownedOneOwnerOnly));
    std::printf("owned: 1 owner+shrs   %12llu\n",
                static_cast<unsigned long long>(
                    stats.dir.ownedOneOwnerPlusSharers));
    std::printf("owned: >1 owner       %12llu\n",
                static_cast<unsigned long long>(
                    stats.dir.ownedMultiOwner));
    std::printf("L2 misses / recalls   %12llu / %llu\n",
                static_cast<unsigned long long>(stats.dir.l2Misses),
                static_cast<unsigned long long>(stats.dir.recalls));

    std::printf("\n=== interconnect (Fig. 15) ===\n");
    std::printf("messages       %12llu\n",
                static_cast<unsigned long long>(stats.net.messages));
    std::printf("flits          %12llu\n",
                static_cast<unsigned long long>(stats.net.flits));
    std::printf("flit-hops      %12llu\n",
                static_cast<unsigned long long>(stats.net.flitHops));

    if (auto err = sys.checkCoherenceInvariant())
        std::printf("\nCOHERENCE VIOLATION: %s\n", err->c_str());
    std::printf("\nvalue violations: %llu\n",
                static_cast<unsigned long long>(sys.valueViolations()));
    return 0;
}
