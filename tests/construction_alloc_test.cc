/**
 * @file
 * Construction-cost gate: building a System costs a fixed number of
 * heap allocations per core and per L2 tile, independent of how many
 * cache sets the configuration has, and leaves the caches untouched.
 *
 * L2 sets take a tag block on their first miss and each way an entry
 * on its first fill, and L1 block slots are constructed on first use,
 * so construction only reserves address space. The L2 reservation is
 * mapped from the OS (PageAllocator), so it stays address space even
 * when the heap would hand back pages an earlier System dirtied. The
 * bound 16 x (numCores + l2Tiles) is machine-independent: it holds for
 * the paper's 16-core machine and the 64-core 8x8 fig_scaling machine
 * alike, although the latter has 4x the tiles and the same 32 MB of
 * aggregate L2. After a run, each tile's resident storage pages must
 * fit its tag blocks and filled ways (mincore), so zero-filling whole
 * sets again fails here.
 */

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/alloc_hook.hh"
#include "common/page_allocator.hh"
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

/** Pages of @p dir's L2 storage mapping that are resident. */
std::size_t
residentPages(const DirController &dir)
{
    const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::span<const std::byte> m = dir.storageMapping();
    std::vector<unsigned char> resident((m.size() + page - 1) / page);
    EXPECT_EQ(mincore(const_cast<std::byte *>(m.data()), m.size(),
                      resident.data()),
              0);
    std::size_t n = 0;
    for (unsigned char r : resident)
        n += r & 1;
    return n;
}

/**
 * Pages @p dir's L2 storage may need: a region tag and an entry id per
 * way of each touched set, and one L2Entry per way filled. The slack
 * covers each of the three arrays straddling one more page than its
 * bytes fill.
 */
std::size_t
neededPages(const DirController &dir, const SystemConfig &cfg)
{
    const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes =
        dir.materializedSets() * cfg.l2Assoc *
            (sizeof(Addr) + sizeof(std::uint32_t)) +
        dir.allocatedEntries() * sizeof(DirController::L2Entry);
    return (bytes + page - 1) / page + 3;
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
        std::size_t resident = 0;
        for (TileId t = 0; t < cfg.l2Tiles; ++t) {
            DirController &dir = sys.dir(t);
            // Every materialization is an L2 miss into an untouched
            // set, and every entry an L2 miss into a never-filled way.
            EXPECT_LE(dir.materializedSets(), dir.stats.l2Misses)
                << "tile " << t;
            EXPECT_LE(dir.allocatedEntries(), dir.stats.l2Misses)
                << "tile " << t;
            // Only the tag blocks and the filled ways' entries are
            // resident, not whole sets of entries.
            const std::size_t pages = residentPages(dir);
            EXPECT_LE(pages, neededPages(dir, cfg)) << "tile " << t;
            sets += dir.materializedSets();
            resident += pages;
        }
        EXPECT_GT(sets, 0u);
        EXPECT_GT(resident, 0u);
        std::size_t slots = 0;
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            const AmoebaCache &l1 = sys.l1(c).cacheStorage();
            EXPECT_LE(l1.blockCount(), l1.slotsInUse()) << "core " << c;
            slots += l1.slotsInUse();
        }
        EXPECT_GT(slots, 0u);
    }
}

// The directory reserves its whole L2 storage up front through
// PageAllocator. Touching the front of such a reservation must leave
// the rest non-resident, and growth within the reservation must not
// move it.
TEST(ConstructionCost, PageAllocatorReservationStaysNonResident)
{
    const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = std::size_t(64) << 20;
    // A transparent huge page may back the touched front; nothing past
    // the first 2 MB may become resident.
    const std::size_t front = std::size_t(2) << 20;

    std::vector<std::uint64_t, PageAllocator<std::uint64_t>> v;
    v.reserve(bytes / sizeof(std::uint64_t));
    v.resize(page / sizeof(std::uint64_t), 1);
    std::uint64_t *base = v.data();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(base) % page, 0u);

    std::vector<unsigned char> resident(bytes / page);
    ASSERT_EQ(mincore(base, bytes, resident.data()), 0);
    EXPECT_TRUE(resident[0] & 1);
    std::size_t beyond = 0;
    for (std::size_t i = front / page; i < resident.size(); ++i)
        beyond += resident[i] & 1;
    EXPECT_EQ(beyond, 0u);

    v.resize(2 * page / sizeof(std::uint64_t), 2);
    EXPECT_EQ(v.data(), base);
    EXPECT_EQ(v.front(), 1u);
    EXPECT_EQ(v.back(), 2u);
}

} // namespace
} // namespace protozoa
