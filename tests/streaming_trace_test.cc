/**
 * @file
 * Streaming trace front end tests: PZTR binary round-trip against the
 * in-memory reference, chunk-level corruption, truncation and framing
 * rejection, generator-stream determinism
 * and seek semantics, and an end-to-end simulation digest lock between
 * a fully materialized workload and its streamed twin.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "protozoa/protozoa.hh"
#include "stats_digest.hh"
#include "workload/streaming_trace.hh"

namespace protozoa {
namespace {

std::vector<std::vector<TraceRecord>>
randomRecords(unsigned cores, std::uint64_t seed, std::size_t lo,
              std::size_t hi)
{
    Rng rng(seed);
    std::vector<std::vector<TraceRecord>> recs(cores);
    for (unsigned c = 0; c < cores; ++c) {
        const std::size_t n = lo + rng.below(hi - lo);
        for (std::size_t i = 0; i < n; ++i) {
            TraceRecord r;
            r.addr = wordAlign(rng.next() & 0xffffffffffull);
            r.pc = rng.next() & 0xffffffffull;
            r.isWrite = rng.chance(0.4);
            r.gapInstrs = static_cast<std::uint16_t>(rng.below(0x100));
            recs[c].push_back(r);
        }
    }
    return recs;
}

void
writeBinaryFile(const std::string &path,
                const std::vector<std::vector<TraceRecord>> &recs,
                std::size_t chunk_records = 64)
{
    std::ofstream out(path, std::ios::binary);
    TraceWriter w(out, static_cast<unsigned>(recs.size()), chunk_records);
    // Interleave cores so chunks from different cores alternate in the
    // file — the reader must route chunks, not assume grouping.
    std::size_t longest = 0;
    for (const auto &v : recs)
        longest = std::max(longest, v.size());
    for (std::size_t i = 0; i < longest; ++i)
        for (unsigned c = 0; c < recs.size(); ++c)
            if (i < recs[c].size())
                w.append(c, recs[c][i]);
    w.finish();
}

/** Overwrite the little-endian u32 at byte @p off of @p path. */
void
patch32(const std::string &path, std::streamoff off, std::uint32_t v)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(off);
    for (int i = 0; i < 4; ++i)
        f.put(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Byte offsets of the first chunk header's fields (after the 16-byte
 *  file header): magic, core, record count, payload bytes. */
constexpr std::streamoff kChunkMagicOff = 16;
constexpr std::streamoff kChunkCoreOff = 20;
constexpr std::streamoff kChunkCountOff = 24;
constexpr std::streamoff kChunkBytesOff = 28;

/** Read core 0's whole stream; dies on the first malformed chunk. */
void
drainCore0(const std::string &path)
{
    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    if (!file)
        return;
    Workload wl = file->makeWorkload();
    TraceRecord r;
    while (wl[0]->next(r)) {
    }
}

void
expectSameStream(TraceSource &got,
                 const std::vector<TraceRecord> &want)
{
    TraceRecord r;
    for (const TraceRecord &w : want) {
        ASSERT_TRUE(got.next(r));
        EXPECT_EQ(r.addr, w.addr);
        EXPECT_EQ(r.pc, w.pc);
        EXPECT_EQ(r.isWrite, w.isWrite);
        EXPECT_EQ(r.gapInstrs, w.gapInstrs);
    }
    EXPECT_FALSE(got.next(r));
}

TEST(StreamingTrace, BinaryRoundTrip)
{
    const unsigned cores = 4;
    const auto recs = randomRecords(cores, 0xbeef, 100, 400);
    const std::string path = "streaming_trace_test_rt.pztr";
    writeBinaryFile(path, recs);

    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    EXPECT_EQ(file->cores(), cores);
    Workload wl = file->makeWorkload();
    ASSERT_EQ(wl.size(), cores);
    for (unsigned c = 0; c < cores; ++c)
        expectSameStream(*wl[c], recs[c]);
    std::remove(path.c_str());
}

TEST(StreamingTrace, RecordsWrittenCounts)
{
    std::ostringstream out;
    TraceWriter w(out, 2, 8);
    TraceRecord r;
    for (int i = 0; i < 21; ++i)
        w.append(i % 2, r);
    w.finish();
    EXPECT_EQ(w.recordsWritten(), 21u);
}

TEST(StreamingTrace, SeekToReplaysForwardAndBackward)
{
    const unsigned cores = 2;
    const auto recs = randomRecords(cores, 0xcafe, 200, 300);
    const std::string path = "streaming_trace_test_seek.pztr";
    writeBinaryFile(path, recs, 32);

    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    Workload wl = file->makeWorkload();

    // Consume some records on both cores, then seek core 0 backwards
    // (which rewinds the shared file) and core 1 forward again.
    TraceRecord r;
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(wl[0]->next(r));
        ASSERT_TRUE(wl[1]->next(r));
    }
    ASSERT_TRUE(wl[0]->seekTo(10));
    ASSERT_TRUE(wl[1]->seekTo(50));
    EXPECT_EQ(wl[0]->cursor(), 10u);
    EXPECT_EQ(wl[1]->cursor(), 50u);

    ASSERT_TRUE(wl[0]->next(r));
    EXPECT_EQ(r.addr, recs[0][10].addr);
    ASSERT_TRUE(wl[1]->next(r));
    EXPECT_EQ(r.addr, recs[1][50].addr);
    std::remove(path.c_str());
}

TEST(StreamingTrace, OpenRejectsBadHeader)
{
    const std::string path = "streaming_trace_test_bad.pztr";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace file";
    }
    std::string err;
    EXPECT_EQ(StreamingTraceFile::open(path, &err), nullptr);
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
    std::remove(path.c_str());

    EXPECT_EQ(StreamingTraceFile::open("no_such_file.pztr", &err),
              nullptr);
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(StreamingTraceDeath, DetectsPayloadCorruption)
{
    const auto recs = randomRecords(2, 0xd00d, 100, 200);
    const std::string path = "streaming_trace_test_crc.pztr";
    writeBinaryFile(path, recs, 32);

    // Flip one payload byte well past the first chunk header.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(16 + 20 + 11); // header + chunk header + into payload
        char b;
        f.seekg(16 + 20 + 11);
        f.get(b);
        f.seekp(16 + 20 + 11);
        f.put(static_cast<char>(b ^ 0x40));
    }
    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    Workload wl = file->makeWorkload();
    TraceRecord r;
    EXPECT_DEATH(
        {
            while (wl[0]->next(r)) {
            }
        },
        "CRC mismatch");
    std::remove(path.c_str());
}

TEST(StreamingTraceDeath, RejectsChunkNamingAbsentCore)
{
    const std::string path = "streaming_trace_test_core.pztr";
    writeBinaryFile(path, randomRecords(2, 0xc0de, 50, 100), 32);
    patch32(path, kChunkCoreOff, 2);
    EXPECT_DEATH(drainCore0(path), "chunk names core 2 of 2");
    std::remove(path.c_str());
}

TEST(StreamingTraceDeath, RejectsImplausibleChunkFraming)
{
    // 32 records of 20 bytes per chunk: zero records, more than a
    // chunk may hold, and a byte length that disagrees with the count.
    const struct
    {
        std::streamoff off;
        std::uint32_t value;
    } patches[] = {
        {kChunkCountOff, 0},
        {kChunkCountOff, static_cast<std::uint32_t>(kMaxChunkRecords + 1)},
        {kChunkBytesOff, 32 * 20 + 1},
    };
    const std::string path = "streaming_trace_test_framing.pztr";
    for (const auto &p : patches) {
        writeBinaryFile(path, randomRecords(2, 0xf4a3, 50, 100), 32);
        patch32(path, p.off, p.value);
        EXPECT_DEATH(drainCore0(path), "implausible chunk framing")
            << "field at byte " << p.off << " = " << p.value;
    }
    std::remove(path.c_str());
}

TEST(StreamingTraceDeath, RejectsBadChunkMagic)
{
    const std::string path = "streaming_trace_test_magic.pztr";
    writeBinaryFile(path, randomRecords(2, 0x3a61c, 50, 100), 32);
    patch32(path, kChunkMagicOff, 0x4b435a51u); // "QZCK"
    EXPECT_DEATH(drainCore0(path), "bad chunk magic");
    std::remove(path.c_str());
}

TEST(StreamingTraceDeath, RejectsTruncatedChunkHeader)
{
    // The file ends 10 bytes into the first chunk header.
    const std::string path = "streaming_trace_test_hdr.pztr";
    writeBinaryFile(path, randomRecords(2, 0x7bc, 50, 100), 32);
    ASSERT_EQ(truncate(path.c_str(), 16 + 10), 0);
    EXPECT_DEATH(drainCore0(path), "truncated chunk header");
    std::remove(path.c_str());
}

TEST(StreamingTraceDeath, DetectsTruncatedChunk)
{
    const auto recs = randomRecords(2, 0xd11d, 100, 200);
    const std::string path = "streaming_trace_test_trunc.pztr";
    writeBinaryFile(path, recs, 32);

    // Truncate mid-payload of the final chunk.
    std::uintmax_t size;
    {
        std::ifstream f(path, std::ios::binary | std::ios::ate);
        size = static_cast<std::uintmax_t>(f.tellg());
    }
    ASSERT_EQ(truncate(path.c_str(), static_cast<long>(size - 7)), 0);

    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    Workload wl = file->makeWorkload();
    TraceRecord r;
    EXPECT_DEATH(
        {
            while (wl[0]->next(r) || wl[1]->next(r)) {
            }
        },
        "truncated chunk");
    std::remove(path.c_str());
}

TEST(StreamingTrace, GeneratorIsDeterministicAndSeekable)
{
    const auto refill = syntheticStreamRefill(42, 1, 4, 128);
    GeneratorTraceSource a(refill, 1000, 128);
    GeneratorTraceSource b(refill, 1000, 128);

    // Same stream regardless of consumption pattern.
    std::vector<TraceRecord> first;
    TraceRecord r;
    while (a.next(r))
        first.push_back(r);
    EXPECT_EQ(first.size(), 1000u);

    ASSERT_TRUE(b.seekTo(500));
    ASSERT_TRUE(b.next(r));
    EXPECT_EQ(r.addr, first[500].addr);
    EXPECT_EQ(r.pc, first[500].pc);
    ASSERT_TRUE(b.seekTo(3));
    ASSERT_TRUE(b.next(r));
    EXPECT_EQ(r.addr, first[3].addr);
    EXPECT_FALSE(b.seekTo(1001));
}

TEST(StreamingTrace, StreamedSimulationMatchesMaterialized)
{
    // Digest lock: running from StreamingTraceSource views must be
    // bit-identical to running the same records from VectorTraces.
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::ProtozoaMW;
    cfg.seed = 77;

    // Materialize the synthetic stream per core.
    std::vector<std::vector<TraceRecord>> recs(cfg.numCores);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        GeneratorTraceSource g(
            syntheticStreamRefill(9, c, cfg.numCores, 256), 2000, 256);
        TraceRecord r;
        while (g.next(r))
            recs[c].push_back(r);
    }

    Workload vec;
    for (unsigned c = 0; c < cfg.numCores; ++c)
        vec.push_back(std::make_unique<VectorTrace>(
            std::vector<TraceRecord>(recs[c])));
    System ref(cfg, std::move(vec));
    ref.run();
    Digest dref;
    addStats(dref, ref.report());

    const std::string path = "streaming_trace_test_sim.pztr";
    writeBinaryFile(path, recs, 256);
    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    System sys(cfg, file->makeWorkload());
    sys.run();
    Digest dstream;
    addStats(dstream, sys.report());

    EXPECT_EQ(dref.value(), dstream.value());
    std::remove(path.c_str());
}

} // namespace
} // namespace protozoa
