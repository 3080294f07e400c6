/**
 * @file
 * Directed protocol tests: stable-state transitions, grants, and the
 * Sec. 3.3 "add-ons to a conventional MESI protocol" (secondary GETXs
 * from the owner, PUT vs PUT_LAST bookkeeping).
 *
 * Uses the WordOnly fetch policy so every block is exactly the
 * referenced word, which makes variable-granularity states easy to
 * assert.
 */

#include <gtest/gtest.h>

#include "protocol_driver.hh"

namespace protozoa {
namespace {

constexpr Addr kRegion = 0x1000;   // home tile 4

SystemConfig
wordCfg(ProtocolKind protocol)
{
    SystemConfig cfg;
    cfg.protocol = protocol;
    cfg.predictor = PredictorKind::WordOnly;
    return cfg;
}

Addr
word(unsigned w)
{
    return kRegion + w * kWordBytes;
}

TEST(ProtocolBasic, ColdLoadGrantsExclusive)
{
    ProtocolDriver d(wordCfg(ProtocolKind::ProtozoaMW));
    const std::uint64_t v = d.load(0, word(3));
    EXPECT_EQ(v, WordStore::initialValue(word(3)));
    EXPECT_EQ(d.stateOf(0, word(3)), BlockState::E);

    const auto view = d.dirView(word(3));
    EXPECT_TRUE(view.present);
    EXPECT_TRUE(view.writers.only(0));   // E grants track as writer
    EXPECT_TRUE(view.readers.none());
    d.expectClean();
}

TEST(ProtocolBasic, SecondReaderDowngradesExclusive)
{
    ProtocolDriver d(wordCfg(ProtocolKind::ProtozoaMW));
    d.load(0, word(3));
    const std::uint64_t v = d.load(1, word(3));
    EXPECT_EQ(v, WordStore::initialValue(word(3)));

    EXPECT_EQ(d.stateOf(0, word(3)), BlockState::S);
    EXPECT_EQ(d.stateOf(1, word(3)), BlockState::S);
    const auto view = d.dirView(word(3));
    EXPECT_TRUE(view.writers.none());
    EXPECT_TRUE(view.readers.test(0));
    EXPECT_TRUE(view.readers.test(1));
    d.expectClean();
}

TEST(ProtocolBasic, StoreMissGrantsModified)
{
    ProtocolDriver d(wordCfg(ProtocolKind::ProtozoaMW));
    d.store(0, word(2), 99);
    EXPECT_EQ(d.stateOf(0, word(2)), BlockState::M);
    EXPECT_EQ(d.load(0, word(2)), 99u);

    const auto view = d.dirView(word(2));
    EXPECT_TRUE(view.writers.only(0));
    d.expectClean();
}

TEST(ProtocolBasic, SilentExclusiveToModifiedUpgrade)
{
    ProtocolDriver d(wordCfg(ProtocolKind::ProtozoaMW));
    d.load(0, word(1));
    EXPECT_EQ(d.stateOf(0, word(1)), BlockState::E);
    const auto before = d.sys.dir(d.homeOf(word(1))).stats.requests;
    d.store(0, word(1), 7);   // hit: silent E->M, no new request
    EXPECT_EQ(d.stateOf(0, word(1)), BlockState::M);
    EXPECT_EQ(d.sys.dir(d.homeOf(word(1))).stats.requests, before);
    EXPECT_EQ(d.load(0, word(1)), 7u);
}

TEST(ProtocolBasic, StoreUpgradeFromSharedInvalidatesOtherReader)
{
    ProtocolDriver d(wordCfg(ProtocolKind::MESI));
    d.load(0, word(5));
    d.load(1, word(5));
    d.store(0, word(5), 11);

    EXPECT_EQ(d.stateOf(0, word(5)), BlockState::M);
    EXPECT_EQ(d.stateOf(1, word(5)), std::nullopt);
    EXPECT_EQ(d.load(1, word(5)), 11u);   // reads back through protocol
    d.expectClean();
}

TEST(ProtocolBasic, DirtyDataForwardedToReader)
{
    for (auto protocol : kAllProtocols) {
        ProtocolDriver d(wordCfg(protocol));
        d.store(0, word(4), 1234);
        EXPECT_EQ(d.load(1, word(4)), 1234u) << protocolName(protocol);
        // Writer was downgraded to S in every protocol.
        EXPECT_EQ(d.stateOf(0, word(4)), BlockState::S);
        d.expectClean();
    }
}

// Sec. 3.3 / Fig. 5 (top): additional GETXs from the owner must be
// answered, not forwarded back to the owner.
TEST(ProtocolBasic, AdditionalGetxFromOwner)
{
    for (auto protocol :
         {ProtocolKind::ProtozoaSW, ProtocolKind::ProtozoaSWMR,
          ProtocolKind::ProtozoaMW}) {
        ProtocolDriver d(wordCfg(protocol));
        d.store(0, word(1), 10);
        d.store(0, word(6), 20);   // second GETX from the same owner

        EXPECT_EQ(d.stateOf(0, word(1)), BlockState::M)
            << protocolName(protocol);
        EXPECT_EQ(d.stateOf(0, word(6)), BlockState::M);
        const auto view = d.dirView(word(1));
        EXPECT_TRUE(view.writers.only(0));
        d.expectClean();
    }
}

// Sec. 3.3 / Fig. 5 (bottom): evicting one of several dirty blocks of
// a region must not unset the sharer; the final eviction must.
TEST(ProtocolBasic, MultipleWritebacksFromOwner)
{
    SystemConfig cfg = wordCfg(ProtocolKind::ProtozoaMW);
    cfg.l1Sets = 1;
    cfg.l1BytesPerSet = 80;   // five 16-byte one-word blocks
    ProtocolDriver d(cfg);

    // Two dirty blocks in region kRegion.
    d.store(0, word(1), 1);
    d.store(0, word(6), 6);
    // Fill the set with other regions until word(1)'s block evicts.
    for (unsigned i = 1; i <= 3; ++i)
        d.store(0, kRegion + i * 64, 100 + i);

    // One block of kRegion evicted (PUT, not PUT_LAST): still tracked.
    auto view = d.dirView(word(1));
    EXPECT_TRUE(view.writers.test(0));

    // Push the remaining kRegion block out as well.
    for (unsigned i = 4; i <= 8; ++i)
        d.store(0, kRegion + i * 64, 100 + i);
    view = d.dirView(word(1));
    EXPECT_FALSE(view.writers.test(0));
    EXPECT_FALSE(view.readers.test(0));

    // Values survived the writeback chain.
    EXPECT_EQ(d.load(1, word(1)), 1u);
    EXPECT_EQ(d.load(1, word(6)), 6u);
    d.expectClean();
}

TEST(ProtocolBasic, WordOnlyBlocksAreSingleWord)
{
    ProtocolDriver d(wordCfg(ProtocolKind::ProtozoaMW));
    d.load(0, word(2));
    EXPECT_EQ(d.stateOf(0, word(2)), BlockState::E);
    EXPECT_EQ(d.stateOf(0, word(3)), std::nullopt);
    EXPECT_EQ(d.stateOf(0, word(1)), std::nullopt);
}

TEST(ProtocolBasic, FullRegionFetchCoversRegion)
{
    SystemConfig cfg = wordCfg(ProtocolKind::MESI);
    ProtocolDriver d(cfg);
    d.load(0, word(2));
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(d.stateOf(0, word(w)), BlockState::E) << w;
}

TEST(ProtocolBasic, LoadsReturnInitialMemoryImage)
{
    ProtocolDriver d(wordCfg(ProtocolKind::ProtozoaSW));
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(d.load(w % 4, word(w)),
                  WordStore::initialValue(word(w)));
    d.expectClean();
}

TEST(ProtocolBasic, WriteReadAcrossManyCores)
{
    ProtocolDriver d(wordCfg(ProtocolKind::ProtozoaMW));
    for (CoreId c = 0; c < 16; ++c)
        d.store(c, word(c % 8), 1000 + c);
    // The last writer of each word was core (w + 8).
    for (unsigned w = 0; w < 8; ++w)
        EXPECT_EQ(d.load(15, word(w)), 1000u + w + 8);
    d.expectClean();
}

} // namespace
} // namespace protozoa
