/**
 * @file
 * Cross-module accounting invariants.
 *
 * Every coherence message has exactly one L1 endpoint (the other end
 * is a directory tile), and the L1s classify exactly the bytes that
 * crossed the mesh: header bytes at send/receive, payload bytes at
 * block death (fills) or at transmission (writebacks). Therefore,
 * after finalization:
 *
 *     sum over L1s (ctrlBytes + used + unused)  ==  mesh bytes
 *
 * This ties the Fig. 9/10 numbers to the Fig. 15 numbers and catches
 * any unclassified or double-counted traffic.
 */

#include <gtest/gtest.h>

#include "protozoa/protozoa.hh"

namespace protozoa {
namespace {

void
expectBalanced(const char *bench, ProtocolKind protocol, double scale)
{
    SystemConfig cfg;
    cfg.protocol = protocol;
    const BenchSpec &spec = findBenchmark(bench);
    System sys(cfg, spec.gen(cfg, scale));
    sys.run();

    const RunStats stats = sys.report();
    EXPECT_EQ(stats.l1.totalBytes(), stats.net.bytes)
        << bench << " under " << protocolName(protocol);
}

TEST(TrafficAccounting, L1BytesMatchMeshBytes)
{
    for (auto protocol : kAllProtocols) {
        expectBalanced("histogram", protocol, 0.2);
        expectBalanced("canneal", protocol, 0.1);
        expectBalanced("x264", protocol, 0.2);
    }
}

TEST(TrafficAccounting, BalancedUnderCachePressure)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.l1Sets = 2;
    cfg.l2BytesPerTile = 2048;   // recalls guaranteed

    Rng rng(31);
    TraceBuilder tb(cfg.numCores, 8);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        for (unsigned i = 0; i < 800; ++i) {
            const Addr a =
                0x30000000 + rng.below(4096) * cfg.regionBytes +
                rng.below(8) * kWordBytes;
            if (rng.chance(0.4))
                tb.store(c, a, 0x20, 2);
            else
                tb.load(c, a, 0x20, 2);
        }
    }
    System sys(cfg, tb.build());
    sys.run();
    const RunStats stats = sys.report();
    EXPECT_GT(stats.dir.recalls, 0u);
    EXPECT_EQ(stats.l1.totalBytes(), stats.net.bytes);
}

TEST(TrafficAccounting, HitsGenerateNoTraffic)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::MESI;
    TraceBuilder tb(cfg.numCores, 9);
    // Each core hammers one private word: 1 miss, N-1 hits per core.
    for (unsigned c = 0; c < cfg.numCores; ++c)
        for (unsigned i = 0; i < 200; ++i)
            tb.load(c, 0x40000000 + c * 4096, 0x30, 1);
    System sys(cfg, tb.build());
    sys.run();
    const RunStats stats = sys.report();
    EXPECT_EQ(stats.l1.misses, cfg.numCores);
    // Traffic: exactly one GETS + DATA + UNBLOCK per core.
    EXPECT_EQ(stats.net.messages, 3u * cfg.numCores);
    EXPECT_EQ(stats.l1.totalBytes(), stats.net.bytes);
}

TEST(TrafficAccounting, DataBytesAreWordMultiples)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    const RunStats stats = runBenchmark(cfg, "string-match", 0.2);
    EXPECT_EQ(stats.l1.usedDataBytes % kWordBytes, 0u);
    EXPECT_EQ(stats.l1.unusedDataBytes % kWordBytes, 0u);
}

TEST(TrafficAccounting, InstructionAndRefCountsExact)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::MESI;
    TraceBuilder tb(cfg.numCores, 10);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        tb.load(c, 0x1000, 0x40, 5);   // 5 gap + 1 ref
        tb.store(c, 0x2000, 0x44, 3);  // 3 gap + 1 ref
    }
    System sys(cfg, tb.build());
    sys.run();
    const RunStats stats = sys.report();
    EXPECT_EQ(stats.instructions, (5u + 1 + 3 + 1) * cfg.numCores);
    EXPECT_EQ(stats.l1.loads, cfg.numCores);
    EXPECT_EQ(stats.l1.stores, cfg.numCores);
}

} // namespace
} // namespace protozoa
