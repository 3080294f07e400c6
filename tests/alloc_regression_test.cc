/**
 * @file
 * Zero-allocation regression test for the steady-state data path.
 *
 * The tentpole claim of the zero-allocation work is that once a run's
 * working set is warm — cache slot pools filled, controller tables and
 * FIFO pools at their high-water marks, golden-memory pages created —
 * the simulation loop performs no heap allocation at all: no block
 * payloads, no message payloads, no map nodes, no queue nodes.
 *
 * This binary interposes counting operator new/delete (see
 * alloc_hook.hh) and drives a 100k-access random workload twice per
 * protocol: a first run measures the total cycle count C, a second
 * identical run snapshots the allocation counter at 0.25*C and asserts
 * the counter never moves again. The window deliberately opens right
 * after the bounded footprint is first touched, so the fill-heavy
 * early phase — L2 misses streaming whole regions out of the memory
 * image — is measured too: directory fills land in the L2 entry's
 * inline word array and must not allocate. The workload keeps a
 * bounded, hot footprint (no cold pool) through a deliberately tiny
 * L1/L2, so evictions, writebacks, inclusive recalls and probe races
 * all stay active inside the measured window.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "common/alloc_hook.hh"
#include "common/rng.hh"
#include "sim/system.hh"
#include "workload/streaming_trace.hh"
#include "workload/trace.hh"

PROTOZOA_DEFINE_COUNTING_NEW

namespace protozoa {
namespace {

SystemConfig
hostileCfg(ProtocolKind protocol)
{
    SystemConfig cfg;
    cfg.protocol = protocol;
    cfg.seed = 11;
    cfg.checkValues = true;
    cfg.l1Sets = 4;              // force constant evictions
    cfg.l2BytesPerTile = 4096;   // force inclusive recalls
    return cfg;
}

Workload
hotPoolWorkload(const SystemConfig &cfg, std::uint64_t accesses_per_core)
{
    // Bounded footprint: every region and golden-memory page is touched
    // early, so all warmup growth happens well before the measurement
    // window opens.
    const unsigned kRegions = 64;
    const Addr base = 0x40000000;
    Rng rng(cfg.seed * 0x5851f42d4c957f2dULL + 7);

    Workload wl;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        std::vector<TraceRecord> recs;
        recs.reserve(accesses_per_core);
        for (std::uint64_t i = 0; i < accesses_per_core; ++i) {
            TraceRecord rec;
            const std::uint64_t region = rng.below(kRegions);
            const unsigned word =
                static_cast<unsigned>(rng.below(cfg.regionWords()));
            rec.addr = base + region * cfg.regionBytes +
                       static_cast<Addr>(word) * kWordBytes;
            rec.pc = 0x1000 + 4 * rng.below(16);
            rec.isWrite = rng.chance(0.4);
            rec.gapInstrs = static_cast<std::uint16_t>(rng.range(1, 4));
            recs.push_back(rec);
        }
        wl.push_back(std::make_unique<VectorTrace>(std::move(recs)));
    }
    return wl;
}

void
expectNoSteadyStateAllocs(ProtocolKind protocol)
{
    const std::uint64_t kAccessesPerCore = 6250;

    // Run 1: learn the total cycle count for this (deterministic)
    // workload.
    const SystemConfig cfg = hostileCfg(protocol);
    Cycle total_cycles = 0;
    {
        System sys(cfg, hotPoolWorkload(cfg, kAccessesPerCore));
        sys.run();
        total_cycles = sys.report().cycles;
        EXPECT_EQ(sys.valueViolations(), 0u);
    }
    ASSERT_GT(total_cycles, 0u);

    // Run 2: identical workload; snapshot the allocation counter at
    // 0.25*C and require that execution — fill-heavy warmup quarter
    // included — never allocates again.
    System sys(cfg, hotPoolWorkload(cfg, kAccessesPerCore));
    std::uint64_t at_window = 0;
    sys.eventQueue().schedule(total_cycles / 4, [&at_window] {
        at_window = AllocHook::allocCount();
    });
    sys.run();
    const std::uint64_t at_end = AllocHook::allocCount();

    EXPECT_EQ(sys.valueViolations(), 0u);
    ASSERT_GT(at_window, 0u);   // the snapshot callback ran
    EXPECT_EQ(at_end - at_window, 0u)
        << protocolName(protocol) << ": " << (at_end - at_window)
        << " heap allocation(s) in the last three quarters of a "
        << total_cycles << "-cycle run";
}

TEST(AllocRegression, MesiSteadyStateIsAllocationFree)
{
    expectNoSteadyStateAllocs(ProtocolKind::MESI);
}

TEST(AllocRegression, ProtozoaMWSteadyStateIsAllocationFree)
{
    expectNoSteadyStateAllocs(ProtocolKind::ProtozoaMW);
}

/**
 * The streaming front end's claim: once the per-core record rings and
 * the pooled chunk buffer hit their high-water marks, refilling from a
 * PZTR file allocates nothing. Same hot-pool workload as above, but
 * delivered through StreamingTraceSource views instead of
 * materialized VectorTraces.
 */
TEST(AllocRegression, StreamedSteadyStateIsAllocationFree)
{
    const std::uint64_t kAccessesPerCore = 6250;
    SystemConfig cfg = hostileCfg(ProtocolKind::ProtozoaMW);

    // Materialize once (setup, unmeasured) into a chunked binary file.
    const std::string path = "alloc_regression_stream.pztr";
    {
        std::ofstream out(path, std::ios::binary);
        TraceWriter w(out, cfg.numCores, 256);
        Workload src = hotPoolWorkload(cfg, kAccessesPerCore);
        TraceRecord rec;
        bool more = true;
        while (more) {
            more = false;
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                if (src[c]->next(rec)) {
                    w.append(c, rec);
                    more = true;
                }
            }
        }
        w.finish();
    }

    Cycle total_cycles = 0;
    {
        std::string err;
        auto file = StreamingTraceFile::open(path, &err);
        ASSERT_NE(file, nullptr) << err;
        System sys(cfg, file->makeWorkload());
        sys.run();
        total_cycles = sys.report().cycles;
        EXPECT_EQ(sys.valueViolations(), 0u);
    }
    ASSERT_GT(total_cycles, 0u);

    std::string err;
    auto file = StreamingTraceFile::open(path, &err);
    ASSERT_NE(file, nullptr) << err;
    System sys(cfg, file->makeWorkload());
    std::uint64_t at_window = 0;
    sys.eventQueue().schedule(total_cycles / 4, [&at_window] {
        at_window = AllocHook::allocCount();
    });
    sys.run();
    const std::uint64_t at_end = AllocHook::allocCount();

    EXPECT_EQ(sys.valueViolations(), 0u);
    ASSERT_GT(at_window, 0u);
    EXPECT_EQ(at_end - at_window, 0u)
        << (at_end - at_window)
        << " heap allocation(s) while streaming the last three "
        << "quarters of a " << total_cycles << "-cycle run";
    std::remove(path.c_str());
}

TEST(AllocRegression, HookCountsAreLive)
{
    const std::uint64_t before = AllocHook::allocCount();
    auto *p = new int(7);
    EXPECT_GT(AllocHook::allocCount(), before);
    delete p;
}

} // namespace
} // namespace protozoa
