/**
 * @file
 * Directed tests of the directory's split L2 storage: a tag block per
 * touched set and one entry per way ever filled.
 *
 * A tiny tile (one 4-way set per tile) is driven through fills, an
 * inclusive recall and its slot hand-off. After every step the tag
 * lookup (DirController::view) must agree with a brute-force scan of
 * forEachEntry, and allocatedEntries() must count exactly the ways
 * filled so far. Snapshot round trips must stay byte-identical for a
 * set whose used ways are not a prefix and for a stale way (invalid
 * but not blank), whose entry a later fill reuses.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "protocol_driver.hh"

namespace protozoa {
namespace {

constexpr unsigned kWays = 4;

/** The paper machine with one kWays-way L2 set per tile. */
SystemConfig
tinyTileCfg()
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.l2Assoc = kWays;
    cfg.l2BytesPerTile = std::uint64_t(kWays) * cfg.regionBytes;
    return cfg;
}

/** Region @p n homed at tile 0 (Modulo slice hash); all share set 0. */
Addr
tile0Region(const SystemConfig &cfg, unsigned n)
{
    return Addr(n) * cfg.l2Tiles * cfg.regionBytes;
}

std::vector<std::uint8_t>
saved(const DirController &dir)
{
    Serializer s;
    dir.saveState(s);
    return s.bytes();
}

/** Offset of the first L2 entry in a saved tile image: stats, LRU
 *  clock, busy-until, RNG state, set count and associativity. */
constexpr std::size_t kEntriesAt = sizeof(DirStats) + 8 + 8 + 32 + 4 + 4;

using Entry = DirController::L2Entry;

Entry
savedEntry(const std::vector<std::uint8_t> &img, unsigned way)
{
    Entry e;
    std::memcpy(&e, &img[kEntriesAt + way * sizeof(Entry)], sizeof(Entry));
    return e;
}

bool
blank(const Entry &e)
{
    static const Entry zero{};
    return std::memcmp(&e, &zero, sizeof(Entry)) == 0;
}

/** Ways of tile 0's only set that hold a non-blank entry. */
unsigned
nonBlankWays(const DirController &dir)
{
    const std::vector<std::uint8_t> img = saved(dir);
    unsigned n = 0;
    for (unsigned w = 0; w < kWays; ++w)
        n += !blank(savedEntry(img, w));
    return n;
}

/** Tag lookups agree with a brute-force scan of every valid entry. */
void
expectLookupMatchesScan(DirController &dir, const SystemConfig &cfg,
                        unsigned regions)
{
    std::map<Addr, DirController::EntrySnap> scan;
    dir.forEachEntry([&](const DirController::EntrySnap &e) {
        EXPECT_EQ(e.setIndex, 0u);
        EXPECT_TRUE(scan.emplace(e.region, e).second)
            << "region " << e.region << " cached twice";
    });
    EXPECT_LE(scan.size(), kWays);
    for (unsigned n = 0; n < regions; ++n) {
        const Addr r = tile0Region(cfg, n);
        const DirController::DirView v = dir.view(r);
        const auto it = scan.find(r);
        ASSERT_EQ(v.present, it != scan.end()) << "region " << n;
        if (!v.present)
            continue;
        EXPECT_EQ(v.readers, it->second.readers) << "region " << n;
        EXPECT_EQ(v.writers, it->second.writers) << "region " << n;
        EXPECT_EQ(v.dirty, it->second.dirty) << "region " << n;
    }
}

TEST(DirStorage, FillsRecallsAndHandOffsKeepTagsAndEntriesInStep)
{
    const SystemConfig cfg = tinyTileCfg();
    ProtocolDriver d(cfg);
    DirController &dir = d.sys.dir(0);
    constexpr unsigned kRegions = kWays + 3;
    for (unsigned n = 0; n < kRegions; ++n)
        ASSERT_EQ(d.homeOf(tile0Region(cfg, n)), 0u);

    EXPECT_EQ(dir.materializedSets(), 0u);
    EXPECT_EQ(dir.allocatedEntries(), 0u);
    expectLookupMatchesScan(dir, cfg, kRegions);

    // Fill every way, alternating loads and stores across cores.
    for (unsigned n = 0; n < kWays; ++n) {
        const Addr r = tile0Region(cfg, n);
        if (n % 2)
            d.store(CoreId(n), r, 100 + n);
        else
            d.load(CoreId(n), r);
        EXPECT_EQ(dir.materializedSets(), 1u);
        EXPECT_EQ(dir.allocatedEntries(), n + 1);
        EXPECT_EQ(nonBlankWays(dir), n + 1);
        expectLookupMatchesScan(dir, cfg, kRegions);
    }
    const std::uint64_t recalls = dir.stats.recalls;

    // Each further region recalls an LRU victim and takes its way over:
    // no new entry, the victim's tag gives way to the new region's.
    for (unsigned n = kWays; n < kRegions; ++n) {
        const Addr r = tile0Region(cfg, n);
        d.store(CoreId(n), r, 100 + n);
        EXPECT_EQ(dir.stats.recalls, recalls + (n - kWays + 1));
        EXPECT_TRUE(dir.view(r).present);
        EXPECT_EQ(dir.allocatedEntries(), kWays);
        EXPECT_EQ(dir.materializedSets(), 1u);
        expectLookupMatchesScan(dir, cfg, kRegions);
    }

    // A recalled region comes back through another recall and hand-off,
    // with its value written back to memory on the way out.
    EXPECT_FALSE(dir.view(tile0Region(cfg, 1)).present);
    EXPECT_EQ(d.load(15, tile0Region(cfg, 1)), 101u);
    EXPECT_TRUE(dir.view(tile0Region(cfg, 1)).present);
    EXPECT_EQ(dir.allocatedEntries(), kWays);
    expectLookupMatchesScan(dir, cfg, kRegions);
    d.expectClean();
}

/** A saved tile-0 image of a fresh tiny System, to patch ways into. */
struct TinyImage
{
    TinyImage() : cfg(tinyTileCfg()), d(cfg), bytes(saved(d.sys.dir(0)))
    {
        EXPECT_EQ(bytes.size(), kEntriesAt + kWays * sizeof(Entry) + 9);
    }

    Entry
    filled(unsigned n, std::uint64_t lru) const
    {
        Entry e;
        e.valid = true;
        e.region = tile0Region(cfg, n);
        e.lruStamp = lru;
        e.wordCount = cfg.regionWords();
        e.words.fill(0x5a00 + n);
        return e;
    }

    void
    put(unsigned way, const Entry &e)
    {
        std::memcpy(&bytes[kEntriesAt + way * sizeof(Entry)], &e,
                    sizeof(Entry));
    }

    /** Restore into tile 0 of @p into, then save it again. */
    std::vector<std::uint8_t>
    roundTrip(ProtocolDriver &into) const
    {
        Deserializer in(bytes.data(), bytes.size());
        EXPECT_TRUE(into.sys.dir(0).restoreState(in));
        EXPECT_TRUE(in.atEnd());
        return saved(into.sys.dir(0));
    }

    SystemConfig cfg;
    ProtocolDriver d;
    std::vector<std::uint8_t> bytes;
};

TEST(DirStorage, NonPrefixWaysRoundTripByteForByte)
{
    TinyImage img;
    img.put(2, img.filled(0, 1));
    img.put(3, img.filled(1, 2));
    ProtocolDriver fresh(img.cfg);
    DirController &dir = fresh.sys.dir(0);
    EXPECT_EQ(img.roundTrip(fresh), img.bytes);
    EXPECT_EQ(dir.materializedSets(), 1u);
    EXPECT_EQ(dir.allocatedEntries(), 2u);
    EXPECT_TRUE(dir.view(tile0Region(img.cfg, 0)).present);
    EXPECT_TRUE(dir.view(tile0Region(img.cfg, 1)).present);
    expectLookupMatchesScan(dir, img.cfg, kWays + 1);

    // The next fill takes way 0, the first invalid way.
    fresh.load(0, tile0Region(img.cfg, 2));
    EXPECT_EQ(dir.allocatedEntries(), 3u);
    EXPECT_EQ(savedEntry(saved(dir), 0).region, tile0Region(img.cfg, 2));
    expectLookupMatchesScan(dir, img.cfg, kWays + 1);
}

TEST(DirStorage, StaleWayRoundTripsAndItsEntryIsReused)
{
    TinyImage img;
    // Way 1 once held region 3: invalid now, but not blank.
    Entry stale = img.filled(3, 1);
    stale.valid = false;
    img.put(1, stale);
    img.put(2, img.filled(0, 2));
    ProtocolDriver fresh(img.cfg);
    DirController &dir = fresh.sys.dir(0);
    EXPECT_EQ(img.roundTrip(fresh), img.bytes);
    EXPECT_EQ(dir.allocatedEntries(), 2u);
    // Only the valid way answers a lookup.
    EXPECT_FALSE(dir.view(tile0Region(img.cfg, 3)).present);
    expectLookupMatchesScan(dir, img.cfg, kWays + 1);

    // Ways 0 then 1 are the first invalid ones: way 0 takes a new
    // entry, way 1 reuses the stale one.
    fresh.load(0, tile0Region(img.cfg, 1));
    EXPECT_EQ(dir.allocatedEntries(), 3u);
    fresh.load(0, tile0Region(img.cfg, 2));
    EXPECT_EQ(dir.allocatedEntries(), 3u);
    const std::vector<std::uint8_t> after = saved(dir);
    EXPECT_EQ(savedEntry(after, 0).region, tile0Region(img.cfg, 1));
    const Entry reused = savedEntry(after, 1);
    EXPECT_TRUE(reused.valid);
    EXPECT_EQ(reused.region, tile0Region(img.cfg, 2));
    expectLookupMatchesScan(dir, img.cfg, kWays + 1);

    // And that state round-trips too.
    ProtocolDriver again(img.cfg);
    Deserializer in(after.data(), after.size());
    ASSERT_TRUE(again.sys.dir(0).restoreState(in));
    EXPECT_EQ(saved(again.sys.dir(0)), after);
    EXPECT_EQ(again.sys.dir(0).allocatedEntries(), 3u);
}

} // namespace
} // namespace protozoa
