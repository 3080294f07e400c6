/**
 * @file
 * The paper's Fig. 1 walkthrough: an array of per-thread counters
 * packed into two cache regions, incremented concurrently by 16
 * threads (the classic OpenMP false-sharing anti-pattern).
 *
 * Demonstrates, protocol by protocol, how MESI ping-pongs the lines,
 * how Protozoa-SW moves less data but still misses, and how
 * Protozoa-MW caches disjoint dirty words concurrently and makes the
 * misses disappear.
 *
 * Build & run:  ./false_sharing_counters
 */

#include <cstdio>

#include "protozoa/protozoa.hh"

using namespace protozoa;

namespace {

constexpr Addr kCounterArray = 0x10000000;
constexpr unsigned kIterations = 2000;

Workload
counterWorkload(const SystemConfig &cfg)
{
    // volatile int Item[MAX_THREADS];
    // worker(i): for (...) Item[i]++;        (Listing 1 of the paper)
    TraceBuilder tb(cfg.numCores, cfg.seed);
    genFalseShareCounters(tb, cfg.numCores, kCounterArray, kIterations,
                          /*spacing_words=*/1, /*gap=*/4,
                          /*pc_base=*/0x400);
    return tb.build();
}

} // namespace

int
main()
{
    std::printf("Fig. 1 counter example: 16 threads x %u increments "
                "of adjacent counters\n\n", kIterations);
    std::printf("%-16s %10s %10s %12s %12s %10s\n", "protocol",
                "misses", "inv-msgs", "data-bytes", "ctrl-bytes",
                "speedup");

    double mesi_cycles = 0;
    for (auto kind : kAllProtocols) {
        SystemConfig cfg;
        cfg.protocol = kind;

        System sys(cfg, counterWorkload(cfg));
        sys.run();
        if (sys.valueViolations() != 0)
            std::printf("  !! value violations detected\n");

        const RunStats stats = sys.report();
        if (kind == ProtocolKind::MESI)
            mesi_cycles = static_cast<double>(stats.cycles);

        std::printf("%-16s %10llu %10llu %12llu %12llu %9.2fx\n",
                    protocolName(kind),
                    static_cast<unsigned long long>(stats.l1.misses),
                    static_cast<unsigned long long>(
                        stats.l1.invMsgsReceived),
                    static_cast<unsigned long long>(
                        stats.l1.dataBytes()),
                    static_cast<unsigned long long>(
                        stats.l1.ctrlBytesTotal()),
                    mesi_cycles / static_cast<double>(stats.cycles));
    }

    std::printf(
        "\nReading the table:\n"
        " - MESI invalidates the whole 64-byte line on every remote\n"
        "   increment: every counter update misses and moves 64 B.\n"
        " - Protozoa-SW fetches single words (data bytes collapse)\n"
        "   but still invalidates at region granularity, so the\n"
        "   misses stay.\n"
        " - Protozoa-MW invalidates at the written words only: after\n"
        "   warmup each thread keeps its counter in M state and the\n"
        "   program stops missing entirely (the paper's 99%% miss\n"
        "   reduction and 2.2x speedup).\n");
    return 0;
}
