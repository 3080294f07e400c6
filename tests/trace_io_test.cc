/**
 * @file
 * Unit tests for trace file I/O: format round-trip, comment and
 * error handling, and end-to-end simulation from a parsed trace.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "protozoa/protozoa.hh"
#include "workload/streaming_trace.hh"
#include "workload/trace_io.hh"

namespace protozoa {
namespace {

TEST(TraceIo, ParsesRecords)
{
    std::istringstream in(
        "# comment line\n"
        "\n"
        "0 L 10000000 4d00 16\n"
        "2 S 80000040 4d08 3\n");
    Workload wl = readTrace(in, 4);
    ASSERT_EQ(wl.size(), 4u);

    TraceRecord rec;
    ASSERT_TRUE(wl[0]->next(rec));
    EXPECT_EQ(rec.addr, 0x10000000u);
    EXPECT_EQ(rec.pc, 0x4d00u);
    EXPECT_FALSE(rec.isWrite);
    EXPECT_EQ(rec.gapInstrs, 16u);
    EXPECT_FALSE(wl[0]->next(rec));

    ASSERT_TRUE(wl[2]->next(rec));
    EXPECT_EQ(rec.addr, 0x80000040u);
    EXPECT_TRUE(rec.isWrite);
    EXPECT_EQ(rec.gapInstrs, 3u);

    EXPECT_FALSE(wl[1]->next(rec));
    EXPECT_FALSE(wl[3]->next(rec));
}

TEST(TraceIo, WordAlignsAddresses)
{
    std::istringstream in("0 L 1003 0 1\n");
    Workload wl = readTrace(in, 1);
    TraceRecord rec;
    ASSERT_TRUE(wl[0]->next(rec));
    EXPECT_EQ(rec.addr, 0x1000u);
}

TEST(TraceIo, RoundTrip)
{
    SystemConfig cfg;
    TraceBuilder tb(cfg.numCores, 4);
    genFalseShareCounters(tb, cfg.numCores, 0x2000, 25, 1, 3, 0x40);
    genPrivateStream(tb, cfg.numCores, 0x100000, 10, 8, 4, 0.5, 2,
                     0x80);

    std::ostringstream out;
    {
        Workload wl = tb.build();
        TraceWriter w(out, TraceWriter::Format::Text, cfg.numCores);
        TraceRecord rec;
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            while (wl[c]->next(rec))
                w.append(c, rec);
        }
        w.finish();
    }

    std::istringstream in(out.str());
    Workload restored = readTrace(in, cfg.numCores);

    // Regenerate the original for comparison.
    TraceBuilder tb2(cfg.numCores, 4);
    genFalseShareCounters(tb2, cfg.numCores, 0x2000, 25, 1, 3, 0x40);
    genPrivateStream(tb2, cfg.numCores, 0x100000, 10, 8, 4, 0.5, 2,
                     0x80);
    Workload original = tb2.build();

    for (unsigned c = 0; c < cfg.numCores; ++c) {
        TraceRecord a, b;
        while (true) {
            const bool more_a = original[c]->next(a);
            const bool more_b = restored[c]->next(b);
            ASSERT_EQ(more_a, more_b);
            if (!more_a)
                break;
            EXPECT_EQ(a.addr, b.addr);
            EXPECT_EQ(a.pc, b.pc);
            EXPECT_EQ(a.isWrite, b.isWrite);
            EXPECT_EQ(a.gapInstrs, b.gapInstrs);
        }
    }
}

TEST(TraceIo, SimulatesParsedTrace)
{
    // A two-line trace per core exercising real sharing.
    std::ostringstream text;
    for (unsigned c = 0; c < 16; ++c) {
        text << c << " L 90000000 100 2\n";
        text << c << " S " << std::hex << (0x90000040 + c * 8)
             << std::dec << " 104 2\n";
    }
    std::istringstream in(text.str());

    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    System sys(cfg, readTrace(in, cfg.numCores));
    sys.run();
    EXPECT_EQ(sys.valueViolations(), 0u);
    const RunStats stats = sys.report();
    EXPECT_EQ(stats.l1.loads, 16u);
    EXPECT_EQ(stats.l1.stores, 16u);
}

TEST(TraceIoDeath, RejectsBadCore)
{
    std::istringstream in("9 L 1000 0 1\n");
    EXPECT_DEATH(readTrace(in, 4), "out of range");
}

TEST(TraceIoDeath, RejectsBadOp)
{
    std::istringstream in("0 X 1000 0 1\n");
    EXPECT_DEATH(readTrace(in, 4), "op must be L or S");
}

TEST(TraceIoDeath, RejectsMalformedLine)
{
    std::istringstream in("0 L zz\n");
    EXPECT_DEATH(readTrace(in, 4), "malformed");
}

// Satellite hardening: a record followed by extra tokens used to parse
// silently, hiding column mistakes (e.g. a shifted field).
TEST(TraceIoDeath, RejectsTrailingGarbage)
{
    std::istringstream in("0 L 1000 0 1 oops\n");
    EXPECT_DEATH(readTrace(in, 4), "trailing garbage");
}

TEST(TraceIoDeath, RejectsDuplicatedRecordOnOneLine)
{
    std::istringstream in("0 L 1000 0 1 0 S 2000 0 1\n");
    EXPECT_DEATH(readTrace(in, 4), "trailing garbage");
}

// Property test: randomized workloads survive a write -> read round
// trip exactly (comments and formatting are the writer's own).
TEST(TraceIo, RandomizedRoundTripProperty)
{
    Rng rng(0xfeed);
    const unsigned cores = 4;
    std::vector<std::vector<TraceRecord>> original(cores);

    for (unsigned c = 0; c < cores; ++c) {
        const std::size_t n = 50 + rng.below(100);
        for (std::size_t i = 0; i < n; ++i) {
            TraceRecord rec;
            rec.addr = wordAlign(rng.next() & 0xffffffffffull);
            rec.pc = rng.next() & 0xffffffffull;
            rec.isWrite = rng.chance(0.5);
            rec.gapInstrs = static_cast<std::uint16_t>(rng.below(
                0x10000));
            original[c].push_back(rec);
        }
    }

    std::ostringstream out;
    TraceWriter w(out, TraceWriter::Format::Text, cores);
    for (unsigned c = 0; c < cores; ++c) {
        for (const TraceRecord &rec : original[c])
            w.append(c, rec);
    }
    w.finish();
    std::istringstream in(out.str());
    Workload restored = readTrace(in, cores);

    for (unsigned c = 0; c < cores; ++c) {
        TraceRecord rec;
        for (const TraceRecord &want : original[c]) {
            ASSERT_TRUE(restored[c]->next(rec));
            EXPECT_EQ(rec.addr, want.addr);
            EXPECT_EQ(rec.pc, want.pc);
            EXPECT_EQ(rec.isWrite, want.isWrite);
            EXPECT_EQ(rec.gapInstrs, want.gapInstrs);
        }
        EXPECT_FALSE(restored[c]->next(rec));
    }
}

TEST(TraceIoDeath, RejectsMissingFile)
{
    EXPECT_DEATH(readTraceFile("/nonexistent/trace.txt", 4),
                 "cannot open");
}

} // namespace
} // namespace protozoa
