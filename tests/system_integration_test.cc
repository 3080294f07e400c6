/**
 * @file
 * End-to-end System tests: small hand-built workloads run to
 * completion under every protocol, with value checking on and the
 * coherence-invariant scanner enabled.
 */

#include <gtest/gtest.h>

#include "protozoa/protozoa.hh"

namespace protozoa {
namespace {

SystemConfig
smallConfig(ProtocolKind protocol)
{
    SystemConfig cfg;
    cfg.protocol = protocol;
    cfg.checkValues = true;
    return cfg;
}

Workload
singleWriterTrace(unsigned cores, Addr base, unsigned refs)
{
    TraceBuilder tb(cores, 42);
    for (unsigned c = 0; c < cores; ++c) {
        for (unsigned i = 0; i < refs; ++i) {
            // Each core owns a private 4 KiB arena.
            const Addr a = base + c * 4096 + (i % 64) * kWordBytes;
            if (i % 3 == 0)
                tb.store(c, a, 0x100 + (i % 8) * 4);
            else
                tb.load(c, a, 0x100 + (i % 8) * 4);
        }
    }
    return tb.build();
}

class AllProtocols : public ::testing::TestWithParam<ProtocolKind>
{
};

TEST_P(AllProtocols, PrivateDataRunsClean)
{
    SystemConfig cfg = smallConfig(GetParam());
    System sys(cfg, singleWriterTrace(cfg.numCores, 0x10000000, 500));
    sys.enablePeriodicInvariantCheck(128);
    sys.run();

    EXPECT_EQ(sys.valueViolations(), 0u);
    EXPECT_EQ(sys.invariantViolations(), 0u);
    EXPECT_FALSE(sys.checkCoherenceInvariant().has_value());

    const RunStats stats = sys.report();
    EXPECT_EQ(stats.l1.loads + stats.l1.stores,
              500ull * cfg.numCores);
    EXPECT_GT(stats.l1.hits, 0u);
    EXPECT_GT(stats.cycles, 0u);
}

TEST_P(AllProtocols, SharedReadOnlyDataRunsClean)
{
    SystemConfig cfg = smallConfig(GetParam());
    TraceBuilder tb(cfg.numCores, 7);
    for (unsigned c = 0; c < cfg.numCores; ++c)
        for (unsigned i = 0; i < 400; ++i)
            tb.load(c, 0x20000000 + (i % 256) * kWordBytes,
                    0x200 + (i % 4) * 4);
    System sys(cfg, tb.build());
    sys.enablePeriodicInvariantCheck(64);
    sys.run();

    EXPECT_EQ(sys.valueViolations(), 0u);
    EXPECT_EQ(sys.invariantViolations(), 0u);
}

TEST_P(AllProtocols, FalseSharedCountersRunClean)
{
    SystemConfig cfg = smallConfig(GetParam());
    TraceBuilder tb(cfg.numCores, 9);
    genFalseShareCounters(tb, cfg.numCores, 0x30000000, 300, 1, 2,
                          0x300);
    System sys(cfg, tb.build());
    sys.enablePeriodicInvariantCheck(64);
    sys.run();

    EXPECT_EQ(sys.valueViolations(), 0u);
    EXPECT_EQ(sys.invariantViolations(), 0u);
}

TEST_P(AllProtocols, ReadWriteSharingRunsClean)
{
    SystemConfig cfg = smallConfig(GetParam());
    TraceBuilder tb(cfg.numCores, 11);
    // All cores read and occasionally write a small shared pool:
    // maximal conflict pressure.
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        for (unsigned i = 0; i < 300; ++i) {
            const Addr a =
                0x40000000 + ((i * 7 + c * 13) % 64) * kWordBytes;
            if ((i + c) % 4 == 0)
                tb.store(c, a, 0x400 + (i % 8) * 4);
            else
                tb.load(c, a, 0x400 + (i % 8) * 4);
        }
    }
    System sys(cfg, tb.build());
    sys.enablePeriodicInvariantCheck(32);
    sys.run();

    EXPECT_EQ(sys.valueViolations(), 0u);
    EXPECT_EQ(sys.invariantViolations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, AllProtocols,
    ::testing::ValuesIn(kAllProtocols),
    [](const ::testing::TestParamInfo<ProtocolKind> &info) {
        // The figure label "SW+MR" is not a legal test name; the
        // command-line key is.
        return std::string(protocolTraits(info.param).key);
    });

/** MW must eliminate the false-sharing ping-pong of Fig. 1. */
TEST(ProtocolComparison, MwEliminatesFalseSharingMisses)
{
    auto run = [](ProtocolKind protocol) {
        SystemConfig cfg = smallConfig(protocol);
        TraceBuilder tb(cfg.numCores, 5);
        genFalseShareCounters(tb, cfg.numCores, 0x50000000, 1000, 1, 2,
                              0x500);
        System sys(cfg, tb.build());
        sys.run();
        return sys.report();
    };

    const RunStats mesi = run(ProtocolKind::MESI);
    const RunStats mw = run(ProtocolKind::ProtozoaMW);

    // Each MESI counter update ping-pongs the line; MW caches disjoint
    // words concurrently, so after warmup there are no further misses.
    EXPECT_GT(mesi.l1.misses, 20u * 16u);
    EXPECT_LT(mw.l1.misses, mesi.l1.misses / 10);
}

} // namespace
} // namespace protozoa
