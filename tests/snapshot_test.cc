/**
 * @file
 * Checkpoint/restore property tests: the snapshot subsystem's contract
 * is digest-locked resumption — save at cycle C, restore into a fresh
 * System (same config, nothing run yet), run to completion, and the
 * full stats digest is bit-identical to the uninterrupted run. The
 * tests exercise that contract across all four protocols, with fault
 * jitter on and off, at randomized checkpoint cycles.
 *
 * The rejection half: corrupted, truncated, version-skewed and
 * config-mismatched images must be refused with a clear error — never
 * undefined behavior, never a half-restored System.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "protozoa/protozoa.hh"
#include "snapshot/snapshot.hh"
#include "stats_digest.hh"
#include "workload/benchmarks.hh"
#include "workload/streaming_trace.hh"

namespace protozoa {
namespace {

constexpr double kScale = 0.04;

Workload
bench(const SystemConfig &cfg, const char *name = "apache")
{
    return findBenchmark(name).gen(cfg, kScale);
}

std::uint64_t
digestOf(const RunStats &s)
{
    Digest d;
    addStats(d, s);
    return d.value();
}

/** Uninterrupted reference run. */
RunStats
referenceRun(const SystemConfig &cfg, const char *name = "apache")
{
    System sys(cfg, bench(cfg, name));
    sys.run();
    return sys.report();
}

/**
 * Run to @p stop, snapshot, restore the bytes into a fresh System (the
 * in-process equivalent of a fresh process: nothing is shared but the
 * byte image), finish both, and require that the restored run's digest
 * matches the uninterrupted one AND the donor's own resumed run.
 */
void
roundTrip(const SystemConfig &cfg, Cycle stop, const char *name = "apache")
{
    const std::uint64_t want = digestOf(referenceRun(cfg, name));

    System donor(cfg, bench(cfg, name));
    donor.runTo(stop);

    Serializer img;
    std::string err;
    ASSERT_TRUE(donor.saveSnapshot(img, &err)) << err;

    System fresh(cfg, bench(cfg, name));
    Deserializer d(img.bytes().data(), img.size());
    ASSERT_TRUE(fresh.restoreSnapshot(d, &err)) << err;
    fresh.run();
    EXPECT_EQ(want, digestOf(fresh.report()))
        << "restored run diverged (stop=" << stop << ")";

    donor.run();
    EXPECT_EQ(want, digestOf(donor.report()))
        << "donor resume diverged (stop=" << stop << ")";
}

TEST(Snapshot, DigestLockedAcrossProtocols)
{
    for (ProtocolKind kind : kAllProtocols) {
        SystemConfig cfg;
        cfg.protocol = kind;
        cfg.seed = 11;
        roundTrip(cfg, 20000);
    }
}

TEST(Snapshot, DigestLockedAtRandomizedCyclesUnderJitter)
{
    // Deterministic "random" checkpoint cycles: a seeded LCG walk over
    // an interesting range, prime-ish offsets so stops land mid-burst.
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (bool jitter : {false, true}) {
        SystemConfig cfg;
        cfg.protocol = ProtocolKind::ProtozoaMW;
        cfg.faultInjection = jitter;
        cfg.seed = 23;
        for (int i = 0; i < 4; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            const Cycle stop = 3000 + (x >> 40) % 60000;
            roundTrip(cfg, stop);
        }
    }
}

TEST(Snapshot, ChainedCheckpointsStayLocked)
{
    // Checkpoint, restore, run a bit, checkpoint the restored system,
    // restore again — digests must survive arbitrary chaining.
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.seed = 5;
    const std::uint64_t want = digestOf(referenceRun(cfg));

    System a(cfg, bench(cfg));
    a.runTo(8000);
    Serializer img1;
    std::string err;
    ASSERT_TRUE(a.saveSnapshot(img1, &err)) << err;

    System b(cfg, bench(cfg));
    Deserializer d1(img1.bytes().data(), img1.size());
    ASSERT_TRUE(b.restoreSnapshot(d1, &err)) << err;
    b.runTo(30000);
    Serializer img2;
    ASSERT_TRUE(b.saveSnapshot(img2, &err)) << err;

    System c(cfg, bench(cfg));
    Deserializer d2(img2.bytes().data(), img2.size());
    ASSERT_TRUE(c.restoreSnapshot(d2, &err)) << err;
    c.run();
    EXPECT_EQ(want, digestOf(c.report()));
}

TEST(Snapshot, FileRoundTrip)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaSW;
    cfg.seed = 7;
    const std::uint64_t want = digestOf(referenceRun(cfg));

    const std::string path = "snapshot_test_roundtrip.pzsn";
    System donor(cfg, bench(cfg));
    donor.runTo(15000);
    std::string err;
    ASSERT_TRUE(donor.saveSnapshotFile(path, &err)) << err;

    System fresh(cfg, bench(cfg));
    ASSERT_TRUE(fresh.restoreSnapshotFile(path, &err)) << err;
    fresh.run();
    EXPECT_EQ(want, digestOf(fresh.report()));
    std::remove(path.c_str());
}

TEST(Snapshot, StreamingWorkloadRoundTrip)
{
    // Generator-backed streams must reposition via seekTo on restore.
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.seed = 31;
    const std::uint64_t kRecs = 6000;

    System ref(cfg, makeSyntheticStreamWorkload(31, cfg.numCores, kRecs));
    ref.run();
    const std::uint64_t want = digestOf(ref.report());

    System donor(cfg, makeSyntheticStreamWorkload(31, cfg.numCores, kRecs));
    donor.runTo(10000);
    Serializer img;
    std::string err;
    ASSERT_TRUE(donor.saveSnapshot(img, &err)) << err;

    System fresh(cfg, makeSyntheticStreamWorkload(31, cfg.numCores, kRecs));
    Deserializer d(img.bytes().data(), img.size());
    ASSERT_TRUE(fresh.restoreSnapshot(d, &err)) << err;
    fresh.run();
    EXPECT_EQ(want, digestOf(fresh.report()));
}

// ---- rejection: corrupt / truncated / skewed images -------------------

Serializer
saveAt(const SystemConfig &cfg, Cycle stop)
{
    System donor(cfg, bench(cfg));
    donor.runTo(stop);
    Serializer img;
    std::string err;
    EXPECT_TRUE(donor.saveSnapshot(img, &err)) << err;
    return img;
}

/** Restore must fail with a non-empty error; the target is discarded. */
void
expectRejected(const SystemConfig &cfg, const std::vector<std::uint8_t> &img)
{
    System fresh(cfg, bench(cfg));
    Deserializer d(img.data(), img.size());
    std::string err;
    EXPECT_FALSE(fresh.restoreSnapshot(d, &err));
    EXPECT_FALSE(err.empty());
}

TEST(SnapshotReject, BadMagic)
{
    SystemConfig cfg;
    cfg.seed = 3;
    Serializer img = saveAt(cfg, 5000);
    std::vector<std::uint8_t> bytes = img.bytes();
    bytes[0] ^= 0xff;
    expectRejected(cfg, bytes);
}

TEST(SnapshotReject, VersionSkew)
{
    SystemConfig cfg;
    cfg.seed = 3;
    Serializer img = saveAt(cfg, 5000);
    std::vector<std::uint8_t> bytes = img.bytes();
    bytes[4] += 1; // version field follows the magic
    System fresh(cfg, bench(cfg));
    Deserializer d(bytes.data(), bytes.size());
    std::string err;
    EXPECT_FALSE(fresh.restoreSnapshot(d, &err));
    EXPECT_NE(err.find("format"), std::string::npos) << err;
}

TEST(SnapshotReject, ConfigMismatch)
{
    SystemConfig cfg;
    cfg.seed = 3;
    Serializer img = saveAt(cfg, 5000);

    SystemConfig other = cfg;
    other.l1Sets = 128;
    System fresh(other, bench(other));
    Deserializer d(img.bytes().data(), img.size());
    std::string err;
    EXPECT_FALSE(fresh.restoreSnapshot(d, &err));
    EXPECT_NE(err.find("configuration"), std::string::npos) << err;
}

TEST(SnapshotReject, EngineModeMismatch)
{
    // The engine-mode byte follows magic, version and fingerprint.
    // Sequential images carry 0; 1 marks an image from the removed
    // sharded engine, whose per-shard sections this build cannot read.
    constexpr std::size_t kModeOffset = 4 + 4 + 8;
    SystemConfig cfg;
    cfg.seed = 3;
    Serializer img = saveAt(cfg, 5000);
    std::vector<std::uint8_t> bytes = img.bytes();
    ASSERT_EQ(bytes[kModeOffset], 0u);
    bytes[kModeOffset] = 1;

    System fresh(cfg, bench(cfg));
    Deserializer d(bytes.data(), bytes.size());
    std::string err;
    EXPECT_FALSE(fresh.restoreSnapshot(d, &err));
    EXPECT_NE(err.find("sharded"), std::string::npos) << err;
}

TEST(SnapshotReject, UsedTargetRefused)
{
    SystemConfig cfg;
    cfg.seed = 3;
    Serializer img = saveAt(cfg, 5000);

    System used(cfg, bench(cfg));
    used.runTo(100); // no longer fresh
    Deserializer d(img.bytes().data(), img.size());
    std::string err;
    EXPECT_FALSE(used.restoreSnapshot(d, &err));
    EXPECT_NE(err.find("fresh"), std::string::npos) << err;
}

TEST(SnapshotReject, TruncationAtEveryRegion)
{
    // Chop the image at a spread of offsets; every prefix must be
    // refused cleanly. (Every byte would be O(n^2); a stride plus the
    // boundaries near the header catches region-boundary bugs.)
    SystemConfig cfg;
    cfg.seed = 9;
    Serializer img = saveAt(cfg, 8000);
    const std::vector<std::uint8_t> &bytes = img.bytes();
    ASSERT_GT(bytes.size(), 64u);

    std::vector<std::size_t> cuts = {0, 1, 3, 4, 7, 8, 12, 16, 17, 24, 32};
    for (std::size_t off = 48; off < bytes.size(); off += bytes.size() / 37)
        cuts.push_back(off);
    cuts.push_back(bytes.size() - 1);

    for (std::size_t cut : cuts) {
        std::vector<std::uint8_t> trunc(bytes.begin(), bytes.begin() + cut);
        expectRejected(cfg, trunc);
    }
}

TEST(SnapshotReject, TrailingGarbage)
{
    SystemConfig cfg;
    cfg.seed = 9;
    Serializer img = saveAt(cfg, 8000);
    std::vector<std::uint8_t> bytes = img.bytes();
    bytes.push_back(0xab);
    bytes.push_back(0xcd);
    System fresh(cfg, bench(cfg));
    Deserializer d(bytes.data(), bytes.size());
    std::string err;
    EXPECT_FALSE(fresh.restoreSnapshot(d, &err));
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(SnapshotReject, MissingFile)
{
    SystemConfig cfg;
    cfg.seed = 9;
    System fresh(cfg, bench(cfg));
    std::string err;
    EXPECT_FALSE(
        fresh.restoreSnapshotFile("no_such_snapshot_file.pzsn", &err));
    EXPECT_FALSE(err.empty());
}

// ---- rejection: bad cache contents ------------------------------------
//
// Component images crafted field by field (L1) or patched into a saved
// blank tile (L2). Each must be refused by restoreState — never an
// assertion, a panic, or an out-of-range shift.

/** One L1 block record in AmoebaCache::saveState's layout. */
struct L1Record
{
    Addr region = 0;
    WordRange range;
    std::uint8_t state = 0;
    std::uint8_t missWord = 0;
};

/** The L1 set the crafted images fill. */
constexpr unsigned kL1Set = 3;

/** An L1 image holding @p blocks in set kL1Set (count @p count). */
std::vector<std::uint8_t>
l1Image(const SystemConfig &cfg, const std::vector<L1Record> &blocks,
        std::uint32_t count)
{
    Serializer s;
    s.writeU64(100);   // LRU clock
    s.writeU32(cfg.l1Sets);
    for (unsigned si = 0; si < cfg.l1Sets; ++si) {
        if (si != kL1Set) {
            s.writeU32(0);
            continue;
        }
        s.writeU32(count);
        std::uint64_t stamp = 1;
        for (const L1Record &b : blocks) {
            s.writeU64(b.region);
            s.writeRaw(b.range);
            s.writeU8(b.state);
            s.writeU64(0);     // touched
            s.writeU64(0x40);  // fetch PC
            s.writeU8(b.missWord);
            s.writeU64(stamp++);
            s.writeU32(b.range.words());
            for (unsigned w = 0; w < b.range.words(); ++w)
                s.writeU64(w);
        }
    }
    return s.bytes();
}

bool
restoresL1(const SystemConfig &cfg, const std::vector<L1Record> &blocks,
           std::uint32_t count)
{
    const std::vector<std::uint8_t> img = l1Image(cfg, blocks, count);
    AmoebaCache cache(cfg);
    Deserializer d(img.data(), img.size());
    return cache.restoreState(d);
}

bool
restoresL1(const SystemConfig &cfg, const std::vector<L1Record> &blocks)
{
    return restoresL1(cfg, blocks,
                      static_cast<std::uint32_t>(blocks.size()));
}

/** Region @p n of L1 set kL1Set. */
Addr
l1Region(const SystemConfig &cfg, unsigned n)
{
    return (Addr(n) * cfg.l1Sets + kL1Set) * cfg.regionBytes;
}

TEST(SnapshotReject, L1WellFormedBlocksAreAccepted)
{
    SystemConfig cfg;
    const unsigned last = cfg.regionWords() - 1;
    EXPECT_TRUE(restoresL1(cfg, {{l1Region(cfg, 0), {0, 2}, 0},
                                 {l1Region(cfg, 0), {3, last}, 2},
                                 {l1Region(cfg, 1), {0, last}, 1}}));
}

TEST(SnapshotReject, L1EmptyRange)
{
    SystemConfig cfg;
    EXPECT_FALSE(restoresL1(cfg, {{l1Region(cfg, 0), {3, 2}, 0}}));
}

TEST(SnapshotReject, L1RangePastRegion)
{
    SystemConfig cfg;
    const unsigned words = cfg.regionWords();
    EXPECT_FALSE(restoresL1(cfg, {{l1Region(cfg, 0), {0, words}, 0}}));
    // Past the word-mask width too: a mask built from it would shift
    // by more than the mask's bits.
    EXPECT_FALSE(
        restoresL1(cfg, {{l1Region(cfg, 0), {kWordMaskBits, 40}, 0}}));
}

TEST(SnapshotReject, L1MissWordPastRegion)
{
    SystemConfig cfg;
    const auto words = static_cast<std::uint8_t>(cfg.regionWords());
    EXPECT_FALSE(restoresL1(cfg, {{l1Region(cfg, 0), {0, 1}, 0, words}}));
}

TEST(SnapshotReject, L1UnknownState)
{
    SystemConfig cfg;
    EXPECT_FALSE(restoresL1(cfg, {{l1Region(cfg, 0), {0, 1}, 3}}));
    EXPECT_FALSE(restoresL1(cfg, {{l1Region(cfg, 0), {0, 1}, 0xff}}));
}

TEST(SnapshotReject, L1OverlappingBlocksOfOneRegion)
{
    SystemConfig cfg;
    EXPECT_FALSE(restoresL1(cfg, {{l1Region(cfg, 0), {0, 3}, 0},
                                  {l1Region(cfg, 0), {3, 5}, 0}}));
}

TEST(SnapshotReject, L1SetBudgetOverflow)
{
    // Full-region blocks: four fill the default 288-byte set exactly.
    SystemConfig cfg;
    const WordRange full = WordRange::full(cfg.regionWords());
    std::vector<L1Record> blocks;
    for (unsigned i = 0; i < 4; ++i)
        blocks.push_back({l1Region(cfg, i), full, 0});
    EXPECT_TRUE(restoresL1(cfg, blocks));
    blocks.push_back({l1Region(cfg, 4), full, 0});
    EXPECT_FALSE(restoresL1(cfg, blocks));
}

TEST(SnapshotReject, L1SlotPoolOverflow)
{
    // One-word blocks: the default set has 18 slots.
    SystemConfig cfg;
    const unsigned slots =
        cfg.l1BytesPerSet / (AmoebaCache::kTagBytes + kWordBytes);
    std::vector<L1Record> blocks;
    for (unsigned i = 0; i < slots; ++i)
        blocks.push_back({l1Region(cfg, i), {0, 0}, 0});
    EXPECT_TRUE(restoresL1(cfg, blocks));
    EXPECT_FALSE(restoresL1(cfg, blocks, slots + 1));
}

/**
 * A saved tile-0 image of a fresh System: every L2 set untouched, so
 * entries can be patched in at computed offsets.
 */
class DirImage
{
  public:
    explicit DirImage(const SystemConfig &cfg)
        : cfg(cfg), sys(cfg, bench(cfg))
    {
        Serializer s;
        sys.dir(0).saveState(s);
        bytes = s.bytes();
        setsPerTile = static_cast<unsigned>(
            cfg.l2BytesPerTile / cfg.regionBytes / cfg.l2Assoc);
        // stats, LRU clock, busy-until, RNG state, set count and assoc.
        header = sizeof(DirStats) + 8 + 8 + 32 + 4 + 4;
        // Then every entry, and empty transaction/queue/Bloom trailers.
        EXPECT_EQ(bytes.size(), header + std::size_t(setsPerTile) *
                                    cfg.l2Assoc * sizeof(Entry) + 9);
    }

    using Entry = DirController::L2Entry;

    /** A valid, filled entry for @p region. */
    Entry
    entry(Addr region) const
    {
        Entry e;
        e.valid = true;
        e.region = region;
        e.lruStamp = 1;
        e.wordCount = cfg.regionWords();
        return e;
    }

    /** Tile 0's region @p n of L2 set @p set (Modulo slice hash). */
    Addr
    region(unsigned set, unsigned n = 0) const
    {
        const Addr idx = (Addr(n) * setsPerTile + set) * cfg.l2Tiles;
        return idx * cfg.regionBytes;
    }

    void
    put(unsigned set, unsigned way, const Entry &e)
    {
        std::memcpy(&bytes[header + (std::size_t(set) * cfg.l2Assoc + way) *
                                        sizeof(Entry)],
                    &e, sizeof(Entry));
    }

    /** Restore into tile 0 of a fresh System. */
    bool
    restores(std::size_t *materialized = nullptr) const
    {
        System fresh(cfg, bench(cfg));
        Deserializer d(bytes.data(), bytes.size());
        const bool ok = fresh.dir(0).restoreState(d);
        if (materialized)
            *materialized = fresh.dir(0).materializedSets();
        return ok;
    }

    SystemConfig cfg;
    System sys;
    std::vector<std::uint8_t> bytes;
    unsigned setsPerTile = 0;
    std::size_t header = 0;
};

TEST(SnapshotReject, L2WellFormedEntryIsAccepted)
{
    DirImage img{SystemConfig{}};
    std::size_t sets = 0;
    EXPECT_TRUE(img.restores(&sets));
    EXPECT_EQ(sets, 0u);
    img.put(5, 2, img.entry(img.region(5)));
    img.put(5, 3, img.entry(img.region(5, 1)));
    EXPECT_TRUE(img.restores(&sets));
    EXPECT_EQ(sets, 1u);
}

TEST(SnapshotReject, L2BadWordCount)
{
    for (unsigned count : {1u, SystemConfig{}.regionWords() + 1, 1000u}) {
        DirImage img{SystemConfig{}};
        DirImage::Entry e = img.entry(img.region(5));
        e.wordCount = count;
        img.put(5, 0, e);
        EXPECT_FALSE(img.restores()) << count;
    }
    // A stale (invalid) entry is checked too.
    DirImage img{SystemConfig{}};
    DirImage::Entry e;
    e.wordCount = 3;
    img.put(7, 1, e);
    EXPECT_FALSE(img.restores());
}

TEST(SnapshotReject, L2EntryOfAnotherTile)
{
    DirImage img{SystemConfig{}};
    img.put(5, 0, img.entry(img.region(5) + img.cfg.regionBytes));
    EXPECT_FALSE(img.restores());
}

TEST(SnapshotReject, L2EntryInWrongSet)
{
    DirImage img{SystemConfig{}};
    img.put(5, 0, img.entry(img.region(6)));
    EXPECT_FALSE(img.restores());
}

TEST(SnapshotReject, L2MisalignedRegion)
{
    DirImage img{SystemConfig{}};
    img.put(5, 0, img.entry(img.region(5) + 8));
    EXPECT_FALSE(img.restores());
}

TEST(SnapshotReject, L2DuplicateRegionInSet)
{
    DirImage img{SystemConfig{}};
    img.put(5, 1, img.entry(img.region(5)));
    img.put(5, 6, img.entry(img.region(5)));
    EXPECT_FALSE(img.restores());
}

TEST(Snapshot, PartlyTouchedTileRoundTripsByteForByte)
{
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.seed = 19;
    System donor(cfg, bench(cfg));
    donor.runTo(20000);
    System fresh(cfg, bench(cfg));
    for (TileId t = 0; t < cfg.l2Tiles; ++t) {
        DirController &src = donor.dir(t);
        ASSERT_GT(src.materializedSets(), 0u);
        Serializer first;
        src.saveState(first);

        DirController &dst = fresh.dir(t);
        Deserializer d(first.bytes().data(), first.size());
        ASSERT_TRUE(dst.restoreState(d)) << "tile " << t;
        EXPECT_TRUE(d.atEnd());
        EXPECT_EQ(dst.materializedSets(), src.materializedSets());
        Serializer second;
        dst.saveState(second);
        EXPECT_EQ(first.bytes(), second.bytes()) << "tile " << t;
    }
}

TEST(Snapshot, ConfigFingerprintSemantics)
{
    SystemConfig a;
    SystemConfig b = a;
    EXPECT_EQ(configFingerprint(a), configFingerprint(b));

    b.seed = a.seed + 1;
    EXPECT_NE(configFingerprint(a), configFingerprint(b));

    b = a;
    b.faultReorderProb = a.faultReorderProb + 0.001;
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
}

} // namespace
} // namespace protozoa
