/**
 * @file
 * Tests for the Sec. 6 3-hop direct-forwarding mode: directed
 * transfers, the 4-hop fallback, latency benefit, and correctness
 * under fuzzing for all protocols.
 */

#include <gtest/gtest.h>

#include "protocol_driver.hh"

namespace protozoa {
namespace {

SystemConfig
threeHopCfg(ProtocolKind protocol)
{
    SystemConfig cfg;
    cfg.protocol = protocol;
    cfg.predictor = PredictorKind::WordOnly;
    cfg.threeHop = true;
    return cfg;
}

std::uint64_t
totalDirect(System &sys)
{
    std::uint64_t n = 0;
    for (TileId t = 0; t < sys.config().l2Tiles; ++t)
        n += sys.dir(t).stats.threeHopDirect;
    return n;
}

TEST(ThreeHop, OwnerForwardsDirectly)
{
    ProtocolDriver d(threeHopCfg(ProtocolKind::ProtozoaMW));
    const Addr a = 0x3000;

    d.store(0, a, 777);          // core 0 owns the word dirty
    EXPECT_EQ(d.load(1, a), 777u);   // served 3-hop from core 0

    EXPECT_EQ(totalDirect(d.sys), 1u);
    EXPECT_EQ(d.stateOf(0, a), BlockState::S);
    EXPECT_EQ(d.stateOf(1, a), BlockState::S);
    d.expectClean();
}

TEST(ThreeHop, WriteMissForwardsDirectly)
{
    ProtocolDriver d(threeHopCfg(ProtocolKind::ProtozoaMW));
    const Addr a = 0x3000;

    d.store(0, a, 1);
    d.store(1, a, 2);            // FWD_GETX served 3-hop
    EXPECT_GE(totalDirect(d.sys), 1u);
    EXPECT_EQ(d.load(2, a), 2u);
    d.expectClean();
}

TEST(ThreeHop, FallsBackWhenOwnerCannotCover)
{
    // Owner holds only word 5; requester asks for word 3 of the same
    // region. MESI/SW probe the owner (region granularity) but it
    // cannot supply word 3 -> 4-hop fallback.
    ProtocolDriver d(threeHopCfg(ProtocolKind::ProtozoaSW));
    const Addr region = 0x4000;

    d.store(0, region + 5 * kWordBytes, 55);
    EXPECT_EQ(d.load(1, region + 3 * kWordBytes),
              WordStore::initialValue(region + 3 * kWordBytes));
    EXPECT_EQ(totalDirect(d.sys), 0u);
    EXPECT_EQ(d.load(1, region + 5 * kWordBytes), 55u);
    d.expectClean();
}

TEST(ThreeHop, NoDirectTransferWithMultipleSharers)
{
    ProtocolDriver d(threeHopCfg(ProtocolKind::MESI));
    const Addr a = 0x5000;
    d.load(0, a);
    d.load(1, a);
    d.load(2, a);
    const auto before = totalDirect(d.sys);
    d.store(3, a, 9);   // three INV probes: no 3-hop attempt
    EXPECT_EQ(totalDirect(d.sys), before);
    EXPECT_EQ(d.load(0, a), 9u);
    d.expectClean();
}

TEST(ThreeHop, CutsMissLatencyForMigratorySharing)
{
    auto cyclesFor = [](bool three_hop) {
        SystemConfig cfg;
        cfg.protocol = ProtocolKind::MESI;
        cfg.threeHop = three_hop;
        TraceBuilder tb(cfg.numCores, 21);
        genMigratory(tb, cfg.numCores, 0x600000, 32, 8, 6, 3, 0x900);
        System sys(cfg, tb.build());
        sys.run();
        EXPECT_EQ(sys.valueViolations(), 0u);
        return sys.report().cycles;
    };

    const Cycle four_hop = cyclesFor(false);
    const Cycle three_hop = cyclesFor(true);
    EXPECT_LT(three_hop, four_hop);
}

class ThreeHopFuzz : public ::testing::TestWithParam<ProtocolKind>
{
};

TEST_P(ThreeHopFuzz, RandomConflictsStayCoherent)
{
    SystemConfig cfg = threeHopCfg(GetParam());
    cfg.predictor = PredictorKind::PcSpatial;
    cfg.l1Sets = 4;
    cfg.l2BytesPerTile = 4096;

    Rng rng(51);
    TraceBuilder tb(cfg.numCores, 13);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        for (unsigned i = 0; i < 1500; ++i) {
            const Addr a = 0x70000000 +
                rng.below(20 * 8) * kWordBytes;
            if (rng.chance(0.45))
                tb.store(c, a, 0x30 + 4 * (i % 8), 2);
            else
                tb.load(c, a, 0x30 + 4 * (i % 8), 2);
        }
    }
    System sys(cfg, tb.build());
    sys.enablePeriodicInvariantCheck(64);
    sys.run();
    EXPECT_EQ(sys.valueViolations(), 0u);
    EXPECT_EQ(sys.invariantViolations(), 0u);
    // The mode actually engaged.
    std::uint64_t direct = 0;
    for (TileId t = 0; t < cfg.l2Tiles; ++t)
        direct += sys.dir(t).stats.threeHopDirect;
    EXPECT_GT(direct, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ThreeHopFuzz,
    ::testing::ValuesIn(kAllProtocols),
    [](const ::testing::TestParamInfo<ProtocolKind> &info) {
        std::string name = protocolName(info.param);
        for (auto &ch : name)
            if (ch == '-' || ch == '+')
                ch = '_';
        return name;
    });

/** Accounting stays balanced with peer-to-peer DATA in the mix. */
TEST(ThreeHop, TrafficAccountingStillBalances)
{
    SystemConfig cfg = threeHopCfg(ProtocolKind::ProtozoaMW);
    cfg.predictor = PredictorKind::PcSpatial;
    const BenchSpec &spec = findBenchmark("histogram");
    System sys(cfg, spec.gen(cfg, 0.2));
    sys.run();
    const RunStats stats = sys.report();
    EXPECT_EQ(stats.l1.totalBytes(), stats.net.bytes);
    EXPECT_GT(stats.dir.threeHopDirect, 0u);
}

} // namespace
} // namespace protozoa
