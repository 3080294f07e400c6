/**
 * @file
 * Construction-cost gate: building a System costs a fixed number of
 * heap allocations per core and per L2 tile, independent of how many
 * cache sets the configuration has, and leaves the caches untouched.
 *
 * L2 sets take their entries on their first fill and L1 block slots
 * are constructed on first use, so construction only reserves address
 * space. The bound 16 x (numCores + l2Tiles) is machine-independent:
 * it holds for the paper's 16-core machine and the 64-core 8x8
 * fig_scaling machine alike, although the latter has 4x the tiles and
 * the same 32 MB of aggregate L2.
 */

#include <gtest/gtest.h>

#include "common/alloc_hook.hh"
#include "protozoa/protozoa.hh"

PROTOZOA_DEFINE_COUNTING_NEW

namespace protozoa {
namespace {

/** The 64-core 8x8 fig_scaling machine (32 MB aggregate L2). */
SystemConfig
scaling64Cfg()
{
    SystemConfig cfg;
    cfg.numCores = 64;
    cfg.l2Tiles = 64;
    cfg.meshCols = 8;
    cfg.meshRows = 8;
    cfg.l2BytesPerTile = (2ull * 1024 * 1024 * 16) / 64;
    return cfg;
}

Workload
smallWorkload(const SystemConfig &cfg)
{
    return findBenchmark("canneal").gen(cfg, 0.02);
}

void
expectUntouched(System &sys)
{
    const SystemConfig &cfg = sys.config();
    for (TileId t = 0; t < cfg.l2Tiles; ++t)
        EXPECT_EQ(sys.dir(t).materializedSets(), 0u) << "tile " << t;
    for (CoreId c = 0; c < cfg.numCores; ++c)
        EXPECT_EQ(sys.l1(c).cacheStorage().slotsInUse(), 0u)
            << "core " << c;
}

void
expectCheapConstruction(const SystemConfig &cfg)
{
    Workload wl = smallWorkload(cfg);
    const std::uint64_t before = AllocHook::allocCount();
    System sys(cfg, std::move(wl));
    const std::uint64_t made = AllocHook::allocCount() - before;
    const std::uint64_t bound = 16ull * (cfg.numCores + cfg.l2Tiles);
    EXPECT_LE(made, bound)
        << cfg.numCores << "-core System construction made " << made
        << " heap allocations";
    expectUntouched(sys);
}

TEST(ConstructionCost, PaperMachineAllocatesPerComponent)
{
    expectCheapConstruction(SystemConfig{});
}

TEST(ConstructionCost, Scaling64AllocatesPerComponent)
{
    expectCheapConstruction(scaling64Cfg());
}

TEST(ConstructionCost, RunMaterializesOnlyMissedSets)
{
    for (ProtocolKind kind : {ProtocolKind::MESI, ProtocolKind::ProtozoaMW}) {
        SystemConfig cfg;
        cfg.protocol = kind;
        System sys(cfg, smallWorkload(cfg));
        sys.run();
        ASSERT_TRUE(sys.finished());
        std::size_t sets = 0;
        for (TileId t = 0; t < cfg.l2Tiles; ++t) {
            DirController &dir = sys.dir(t);
            // Every materialization is an L2 miss into an untouched set.
            EXPECT_LE(dir.materializedSets(), dir.stats.l2Misses)
                << "tile " << t;
            sets += dir.materializedSets();
        }
        EXPECT_GT(sets, 0u);
        std::size_t slots = 0;
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            const AmoebaCache &l1 = sys.l1(c).cacheStorage();
            EXPECT_LE(l1.blockCount(), l1.slotsInUse()) << "core " << c;
            slots += l1.slotsInUse();
        }
        EXPECT_GT(slots, 0u);
    }
}

} // namespace
} // namespace protozoa
