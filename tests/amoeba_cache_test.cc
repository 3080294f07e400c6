/**
 * @file
 * Unit tests for the variable-granularity AmoebaCache: byte-budget
 * sets, overlap queries, LRU eviction, and the non-overlap invariant.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/amoeba_cache.hh"

namespace protozoa {
namespace {

SystemConfig
tinyCfg()
{
    SystemConfig cfg;
    cfg.l1Sets = 4;
    cfg.l1BytesPerSet = 288;
    return cfg;
}

AmoebaBlock
makeBlock(Addr region, WordRange range,
          BlockState state = BlockState::S)
{
    AmoebaBlock blk;
    blk.region = region;
    blk.range = range;
    blk.state = state;
    blk.words.assign(range.words(), 0);
    return blk;
}

/** Regions that map to set 0 of the tiny config. */
Addr
regionInSet0(unsigned n)
{
    SystemConfig cfg = tinyCfg();
    return static_cast<Addr>(n) * cfg.l1Sets * cfg.regionBytes;
}

TEST(AmoebaCache, InsertAndFind)
{
    AmoebaCache cache(tinyCfg());
    const Addr r = regionInSet0(1);
    cache.insert(makeBlock(r, WordRange(2, 5)));

    EXPECT_NE(cache.findCovering(r, 2), nullptr);
    EXPECT_NE(cache.findCovering(r, 5), nullptr);
    EXPECT_EQ(cache.findCovering(r, 1), nullptr);
    EXPECT_EQ(cache.findCovering(r, 6), nullptr);
    EXPECT_EQ(cache.findCovering(r + 64 * 4, 3), nullptr);
    EXPECT_EQ(cache.blockCount(), 1u);
}

std::size_t
regionBlockCount(AmoebaCache &cache, Addr region)
{
    AmoebaCache::BlockPtrs out;
    cache.blocksOfRegion(region, out);
    return out.size();
}

std::size_t
overlapCount(AmoebaCache &cache, Addr region, WordRange r)
{
    AmoebaCache::BlockPtrs out;
    cache.overlapping(region, r, out);
    return out.size();
}

TEST(AmoebaCache, MultipleDisjointBlocksPerRegion)
{
    AmoebaCache cache(tinyCfg());
    const Addr r = regionInSet0(1);
    cache.insert(makeBlock(r, WordRange(0, 1)));
    cache.insert(makeBlock(r, WordRange(3, 4)));
    cache.insert(makeBlock(r, WordRange(6, 7)));

    EXPECT_EQ(regionBlockCount(cache, r), 3u);
    EXPECT_EQ(overlapCount(cache, r, WordRange(1, 3)), 2u);
    EXPECT_EQ(overlapCount(cache, r, WordRange(5, 5)), 0u);
    EXPECT_EQ(overlapCount(cache, r, WordRange(0, 7)), 3u);
}

TEST(AmoebaCacheDeath, OverlappingInsertPanics)
{
    AmoebaCache cache(tinyCfg());
    const Addr r = regionInSet0(1);
    cache.insert(makeBlock(r, WordRange(2, 5)));
    EXPECT_DEATH(cache.insert(makeBlock(r, WordRange(5, 6))),
                 "overlapping insert");
}

TEST(AmoebaCache, DirtyTracking)
{
    AmoebaCache cache(tinyCfg());
    const Addr r = regionInSet0(1);
    cache.insert(makeBlock(r, WordRange(0, 1), BlockState::S));
    EXPECT_FALSE(cache.hasDirtyRegion(r));
    EXPECT_FALSE(cache.hasWritableRegion(r));

    cache.insert(makeBlock(r, WordRange(4, 5), BlockState::E));
    EXPECT_FALSE(cache.hasDirtyRegion(r));
    EXPECT_TRUE(cache.hasWritableRegion(r));   // E can silently upgrade

    cache.insert(makeBlock(r, WordRange(6, 7), BlockState::M));
    EXPECT_TRUE(cache.hasDirtyRegion(r));
    EXPECT_TRUE(cache.hasWritableRegion(r));
}

TEST(AmoebaCache, ByteBudgetAccounting)
{
    AmoebaCache cache(tinyCfg());
    const Addr r = regionInSet0(1);
    const unsigned set = cache.setOf(r);
    EXPECT_EQ(cache.setOccupancyBytes(set), 0u);

    cache.insert(makeBlock(r, WordRange(0, 7)));   // 64 data + 8 tag
    EXPECT_EQ(cache.setOccupancyBytes(set), 72u);

    cache.insert(makeBlock(r + 64 * 4, WordRange(3, 3)));  // 8 + 8
    EXPECT_EQ(cache.setOccupancyBytes(set), 88u);
}

TEST(AmoebaCache, MesiDegenerateCaseHoldsFourWays)
{
    // 288-byte sets with 72-byte full-region blocks = 4 ways.
    AmoebaCache cache(tinyCfg());
    for (unsigned i = 0; i < 4; ++i) {
        AmoebaCache::Evicted evicted;
        cache.makeRoom(regionInSet0(i), WordRange(0, 7), evicted);
        EXPECT_TRUE(evicted.empty());
        cache.insert(makeBlock(regionInSet0(i), WordRange(0, 7)));
    }
    AmoebaCache::Evicted evicted;
    cache.makeRoom(regionInSet0(4), WordRange(0, 7), evicted);
    EXPECT_EQ(evicted.size(), 1u);
}

TEST(AmoebaCache, FinerBlocksRaiseBlockCount)
{
    // The same 288-byte set holds 18 one-word blocks (16 B each).
    AmoebaCache cache(tinyCfg());
    for (unsigned i = 0; i < 18; ++i) {
        const Addr r = regionInSet0(i);
        AmoebaCache::Evicted evicted;
        cache.makeRoom(r, WordRange(0, 0), evicted);
        EXPECT_TRUE(evicted.empty()) << i;
        cache.insert(makeBlock(r, WordRange(0, 0)));
    }
    EXPECT_EQ(cache.blockCount(), 18u);
    AmoebaCache::Evicted evicted;
    cache.makeRoom(regionInSet0(19), WordRange(0, 0), evicted);
    EXPECT_EQ(evicted.size(), 1u);
}

TEST(AmoebaCache, MakeRoomEvictsLruFirst)
{
    AmoebaCache cache(tinyCfg());
    AmoebaBlock *first =
        cache.insert(makeBlock(regionInSet0(0), WordRange(0, 7)));
    for (unsigned i = 1; i < 4; ++i)
        cache.insert(makeBlock(regionInSet0(i), WordRange(0, 7)));

    // Refresh block 0 so block 1 becomes LRU.
    cache.touchLru(first);
    AmoebaCache::Evicted evicted;
    cache.makeRoom(regionInSet0(9), WordRange(0, 7), evicted);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].region, regionInSet0(1));
}

TEST(AmoebaCache, MakeRoomMayEvictSeveralSmallBlocks)
{
    SystemConfig cfg = tinyCfg();
    cfg.l1BytesPerSet = 96;    // one full region + a bit
    AmoebaCache cache(cfg);
    const Addr r = regionInSet0(0);
    cache.insert(makeBlock(r, WordRange(0, 0)));
    cache.insert(makeBlock(r, WordRange(2, 2)));
    cache.insert(makeBlock(r, WordRange(4, 4)));
    cache.insert(makeBlock(r, WordRange(6, 6)));  // 4 x 16B = 64B used

    AmoebaCache::Evicted evicted;
    cache.makeRoom(regionInSet0(1), WordRange(0, 7), evicted);  // 72B
    EXPECT_EQ(evicted.size(), 3u);  // down to 16B used
}

TEST(AmoebaCache, RemoveExactExtractsBlock)
{
    AmoebaCache cache(tinyCfg());
    const Addr r = regionInSet0(1);
    AmoebaBlock *resident =
        cache.insert(makeBlock(r, WordRange(2, 4), BlockState::M));
    resident->wordAt(3) = 0x1234;

    AmoebaBlock out = cache.removeExact(r, WordRange(2, 4));
    EXPECT_EQ(out.wordAt(3), 0x1234u);
    EXPECT_EQ(out.state, BlockState::M);
    EXPECT_EQ(cache.blockCount(), 0u);
    EXPECT_EQ(cache.setOccupancyBytes(cache.setOf(r)), 0u);
}

TEST(AmoebaCacheDeath, RemoveExactMissingPanics)
{
    AmoebaCache cache(tinyCfg());
    EXPECT_DEATH(cache.removeExact(regionInSet0(0), WordRange(0, 1)),
                 "not resident");
}

TEST(AmoebaCache, TouchedWordAccounting)
{
    AmoebaBlock blk = makeBlock(0, WordRange(2, 6));
    EXPECT_EQ(blk.touchedWords(), 0u);
    EXPECT_EQ(blk.untouchedWords(), 5u);
    blk.touched |= WordMask(1) << 3;
    blk.touched |= WordMask(1) << 6;
    EXPECT_EQ(blk.touchedWords(), 2u);
    EXPECT_EQ(blk.untouchedWords(), 3u);
    // Touched bits outside the range are ignored.
    blk.touched |= WordMask(1) << 0;
    EXPECT_EQ(blk.touchedWords(), 2u);
}

TEST(AmoebaCache, WordAtIndexing)
{
    AmoebaBlock blk = makeBlock(0, WordRange(3, 5));
    blk.wordAt(3) = 10;
    blk.wordAt(4) = 20;
    blk.wordAt(5) = 30;
    EXPECT_EQ(blk.words[0], 10u);
    EXPECT_EQ(blk.words[1], 20u);
    EXPECT_EQ(blk.words[2], 30u);
}

TEST(AmoebaCache, ForEachVisitsEverything)
{
    AmoebaCache cache(tinyCfg());
    cache.insert(makeBlock(regionInSet0(0), WordRange(0, 1)));
    cache.insert(makeBlock(regionInSet0(1), WordRange(2, 3)));
    cache.insert(makeBlock(regionInSet0(2) + 64, WordRange(4, 5)));
    unsigned count = 0;
    cache.forEach([&](const AmoebaBlock &) { ++count; });
    EXPECT_EQ(count, 3u);
}

// ---- slab storage: first-use slots, one free list -------------------

/** Regions that map to set 1 of the tiny config. */
Addr
regionInSet1(unsigned n)
{
    return regionInSet0(n) + tinyCfg().regionBytes;
}

TEST(AmoebaCache, FreshCacheHasNoSlots)
{
    AmoebaCache cache(tinyCfg());
    EXPECT_EQ(cache.slotsInUse(), 0u);
    EXPECT_EQ(cache.blockCount(), 0u);
    EXPECT_EQ(cache.findCovering(regionInSet0(0), 0), nullptr);
}

TEST(AmoebaCache, FreedSlotIsReusedByAnotherSet)
{
    AmoebaCache cache(tinyCfg());
    AmoebaBlock *a = cache.insert(makeBlock(regionInSet0(0), WordRange(0, 7)));
    EXPECT_EQ(cache.slotsInUse(), 1u);
    cache.removeExact(regionInSet0(0), WordRange(0, 7));
    EXPECT_EQ(cache.slotsInUse(), 1u);

    AmoebaBlock *b = cache.insert(makeBlock(regionInSet1(0), WordRange(2, 3)));
    EXPECT_EQ(b, a);   // same slot, now holding a set-1 block
    EXPECT_EQ(cache.slotsInUse(), 1u);
    EXPECT_EQ(cache.findCovering(regionInSet1(0), 2), b);
    EXPECT_EQ(cache.findCovering(regionInSet0(0), 2), nullptr);

    cache.insert(makeBlock(regionInSet0(1), WordRange(0, 0)));
    EXPECT_EQ(cache.slotsInUse(), 2u);   // free list empty: slab grows
}

TEST(AmoebaCache, OrderSurvivesInterleavedInsertAndEvict)
{
    AmoebaCache cache(tinyCfg());
    auto full = [](Addr r) { return makeBlock(r, WordRange(0, 7)); };
    // Set 0 fills to its four ways while set 1 gets blocks in between,
    // so the slots of both sets interleave in the slab.
    for (unsigned i = 0; i < 4; ++i) {
        cache.insert(full(regionInSet0(i)));
        cache.insert(full(regionInSet1(i)));
    }
    cache.removeExact(regionInSet1(1), WordRange(0, 7));
    AmoebaCache::Evicted evicted;
    cache.makeRoom(regionInSet0(7), WordRange(0, 7), evicted);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].region, regionInSet0(0));   // LRU of set 0
    cache.insert(full(regionInSet0(7)));    // takes set 0's freed slot
    cache.insert(full(regionInSet1(5)));    // takes set 1's freed slot
    EXPECT_EQ(cache.slotsInUse(), 8u);
    EXPECT_EQ(cache.blockCount(), 8u);

    std::vector<Addr> seen;
    cache.forEach([&](const AmoebaBlock &b) { seen.push_back(b.region); });
    const std::vector<Addr> want = {
        regionInSet0(1), regionInSet0(2), regionInSet0(3), regionInSet0(7),
        regionInSet1(0), regionInSet1(2), regionInSet1(3), regionInSet1(5)};
    EXPECT_EQ(seen, want);

    // Insertion order also breaks LRU ties and picks the next victim.
    evicted.clear();
    cache.makeRoom(regionInSet1(9), WordRange(0, 7), evicted);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].region, regionInSet1(0));
}

} // namespace
} // namespace protozoa
