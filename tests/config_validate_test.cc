/**
 * @file
 * SystemConfig validation and geometry-scaling tests: the wide-mesh
 * rejection paths (core counts past kMaxCores, degenerate meshes,
 * undersized L2 tiles, a non-zero simThreads), the protocol and
 * predictor checks, the protocol table against docs/PROTOCOL.md, the
 * watchdog horizon's mesh scaling, and the region -> home-tile
 * interleave.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "protocol/conformance.hh"

namespace protozoa {
namespace {

SystemConfig
meshConfig(unsigned cores, unsigned cols, unsigned rows)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.l2Tiles = cores;
    cfg.meshCols = cols;
    cfg.meshRows = rows;
    return cfg;
}

TEST(ConfigValidateScaling, RejectsCoreCountsPastKMaxCores)
{
    SystemConfig cfg = meshConfig(kMaxCores + 1, kMaxCores + 1, 1);
    EXPECT_DEATH(cfg.validate(), "out of range");

    SystemConfig zero = meshConfig(0, 0, 0);
    EXPECT_DEATH(zero.validate(), "out of range");
}

TEST(ConfigValidateScaling, RejectsDegenerateMeshes)
{
    SystemConfig cfg = meshConfig(16, 0, 4);
    EXPECT_DEATH(cfg.validate(), "at least one column");

    SystemConfig cfg2 = meshConfig(16, 4, 0);
    EXPECT_DEATH(cfg2.validate(), "at least one column");
}

TEST(ConfigValidateScaling, RejectsL2TileBelowOneSet)
{
    SystemConfig cfg;
    cfg.l2BytesPerTile = 256; // < 64-byte regions x 8 ways
    EXPECT_DEATH(cfg.validate(), "cannot hold");
}

TEST(ConfigValidateScaling, RejectsNonPowerOfTwoBloomBuckets)
{
    SystemConfig cfg;
    cfg.directory = DirectoryKind::TaglessBloom;
    cfg.bloomBuckets = 100;
    EXPECT_DEATH(cfg.validate(), "power of two");
}

TEST(ConfigValidateScaling, RejectsSimThreads)
{
    // There is no in-process parallel engine; asking for worker
    // threads must fail loudly instead of silently running sequential.
    SystemConfig cfg;
    cfg.simThreads = 4;
    EXPECT_DEATH(cfg.validate(), "sharded parallel engine was removed");

    cfg.simThreads = 1;
    EXPECT_DEATH(cfg.validate(), "simThreads=1");
}

TEST(ConfigValidate, RejectsFixedPredictorWithZeroWords)
{
    // Zero fetch words would divide by zero on the first miss.
    SystemConfig cfg;
    cfg.predictor = PredictorKind::Fixed;
    cfg.fixedFetchWords = 0;
    EXPECT_DEATH(cfg.validate(), "fixedFetchWords=0");

    cfg.fixedFetchWords = 1;
    cfg.validate();
}

TEST(ConfigValidate, RejectsProtocolOutsideTheTable)
{
    SystemConfig cfg;
    cfg.protocol = static_cast<ProtocolKind>(kProtocolTable.size());
    EXPECT_DEATH(cfg.validate(), "not a row of the protocol table");
}

// The inventory masks the table derives are the ones the paper implies.
static_assert(P_ADAPT == (P_SWMR | P_MW),
              "P_ADAPT must be exactly the word-granular rows");
static_assert(P_PARTIAL == (P_SW | P_SWMR | P_MW),
              "P_PARTIAL must be exactly the rows without region fetches");

/** Cells of the docs/PROTOCOL.md flag table, one vector per row. */
std::vector<std::vector<std::string>>
docFlagTable()
{
    std::ifstream in(std::string(PROTOZOA_SOURCE_DIR) +
                     "/docs/PROTOCOL.md");
    std::vector<std::vector<std::string>> rows;
    bool inTable = false;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("| Protocol | key | label |", 0) == 0) {
            inTable = true;
            continue;
        }
        if (!inTable)
            continue;
        if (line.rfind("|", 0) != 0)
            break;
        if (line.rfind("|---", 0) == 0)
            continue;
        std::vector<std::string> cells;
        std::istringstream ss(line.substr(1));
        for (std::string cell; std::getline(ss, cell, '|');) {
            const auto b = cell.find_first_not_of(" `");
            const auto e = cell.find_last_not_of(" `");
            cells.push_back(b == std::string::npos
                                ? ""
                                : cell.substr(b, e - b + 1));
        }
        rows.push_back(cells);
    }
    return rows;
}

TEST(ProtocolTable, MatchesTheDocFlagTableAndParsesEveryKey)
{
    const auto yesNo = [](bool b) { return std::string(b ? "yes" : "no"); };
    const auto doc = docFlagTable();
    ASSERT_EQ(doc.size(), kProtocolTable.size())
        << "docs/PROTOCOL.md flag table has drifted from kProtocolTable";
    for (std::size_t i = 0; i < kProtocolTable.size(); ++i) {
        const ProtocolTraits &row = kProtocolTable[i];
        const std::vector<std::string> want = {
            row.name,
            row.key,
            row.label,
            yesNo(row.fullRegionFetch),
            yesNo(row.wordGranularCoherence),
            yesNo(row.singleWriter),
            yesNo(row.revokeWritePerm())};
        EXPECT_EQ(doc[i], want) << "row " << row.name;

        EXPECT_STREQ(protocolName(row.kind), row.name);
        EXPECT_EQ(parseProtocol(row.key), row.kind);
    }
    EXPECT_EQ(parseProtocol("MESI"), std::nullopt);
    EXPECT_EQ(parseProtocol("sw+mr"), std::nullopt);
    EXPECT_EQ(parseProtocol(""), std::nullopt);
}

TEST(ConfigValidateScaling, AcceptsWideMeshes)
{
    SystemConfig c64 = meshConfig(64, 8, 8);
    c64.validate();

    SystemConfig c256 = meshConfig(256, 16, 16);
    // Keep the aggregate L2 at 32 MB, as fig_scaling does.
    c256.l2BytesPerTile = (2ull * 1024 * 1024 * 16) / 256;
    c256.validate();

    SystemConfig c1 = meshConfig(1, 1, 1);
    c1.validate();
}

TEST(WatchdogHorizon, ReferenceGeometryKeepsTheConfiguredBound)
{
    SystemConfig cfg; // 4x4, 16 cores
    cfg.watchdogCycles = 2000;
    EXPECT_EQ(cfg.watchdogHorizon(), 2000u);

    SystemConfig small = meshConfig(4, 2, 2);
    small.watchdogCycles = 2000;
    EXPECT_EQ(small.watchdogHorizon(), 2000u);

    SystemConfig off;
    off.watchdogCycles = 0;
    EXPECT_EQ(off.watchdogHorizon(), 0u);
}

TEST(WatchdogHorizon, GrowsWithMeshDiameterAndCoreCount)
{
    SystemConfig c16; // reference
    SystemConfig c64 = meshConfig(64, 8, 8);
    SystemConfig c256 = meshConfig(256, 16, 16);
    c16.watchdogCycles = c64.watchdogCycles = c256.watchdogCycles = 2000;

    EXPECT_GT(c64.watchdogHorizon(), c16.watchdogHorizon());
    EXPECT_GT(c256.watchdogHorizon(), c64.watchdogHorizon());
}

TEST(WatchdogHorizon, NeverDropsBelowOneTransactionCost)
{
    // A 1-cycle configured bound cannot beat a single memory fetch.
    SystemConfig cfg = meshConfig(256, 16, 16);
    cfg.watchdogCycles = 1;
    EXPECT_GE(cfg.watchdogHorizon(), cfg.memLatency);
}

TEST(SliceHash, ModuloMatchesThePaperInterleave)
{
    SystemConfig cfg;
    for (unsigned idx = 0; idx < 64; ++idx) {
        const Addr region = Addr(idx) * cfg.regionBytes;
        EXPECT_EQ(cfg.homeTileOf(region), idx % cfg.l2Tiles);
    }
}

} // namespace
} // namespace protozoa
