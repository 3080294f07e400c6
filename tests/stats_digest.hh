/**
 * @file
 * Shared RunStats digesting for the bit-identity and determinism
 * tests: an FNV-1a fold over every deterministic statistic, excluding
 * wall-clock metrics.
 */

#ifndef PROTOZOA_TESTS_STATS_DIGEST_HH
#define PROTOZOA_TESTS_STATS_DIGEST_HH

#include <cstdint>

#include "common/stats.hh"

namespace protozoa {

class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        // FNV-1a over the value's bytes, 64-bit folded.
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/**
 * Protocol-visible statistics: everything a workload's coherence
 * behavior determines.
 */
inline void
addProtocolStats(Digest &d, const RunStats &s)
{
    d.add(s.l1.loads);
    d.add(s.l1.stores);
    d.add(s.l1.hits);
    d.add(s.l1.misses);
    d.add(s.l1.invMsgsReceived);
    d.add(s.l1.blocksInvalidated);
    d.add(s.l1.usedDataBytes);
    d.add(s.l1.unusedDataBytes);
    for (const std::uint64_t v : s.l1.ctrlBytes)
        d.add(v);
    for (const std::uint64_t v : s.l1.blockSizeHist)
        d.add(v);
    d.add(s.dir.requests);
    d.add(s.dir.l2Misses);
    d.add(s.dir.recalls);
    d.add(s.dir.memReadBytes);
    d.add(s.dir.memWriteBytes);
    d.add(s.dir.bloomFalseProbes);
    d.add(s.dir.threeHopDirect);
    d.add(s.dir.ownedOneOwnerOnly);
    d.add(s.dir.ownedOneOwnerPlusSharers);
    d.add(s.dir.ownedMultiOwner);
    d.add(s.net.messages);
    d.add(s.net.bytes);
    d.add(s.net.flits);
    d.add(s.net.flitHops);
    d.add(s.instructions);
    d.add(s.cycles);
}

/**
 * Full digest: protocol stats plus the scheduler-kernel counters
 * (deterministic; wallSeconds is excluded). The fold order
 * is frozen — bitident_guard_test's committed golden digest depends
 * on it.
 */
inline void
addStats(Digest &d, const RunStats &s)
{
    d.add(s.l1.loads);
    d.add(s.l1.stores);
    d.add(s.l1.hits);
    d.add(s.l1.misses);
    d.add(s.l1.invMsgsReceived);
    d.add(s.l1.blocksInvalidated);
    d.add(s.l1.usedDataBytes);
    d.add(s.l1.unusedDataBytes);
    for (const std::uint64_t v : s.l1.ctrlBytes)
        d.add(v);
    for (const std::uint64_t v : s.l1.blockSizeHist)
        d.add(v);
    d.add(s.dir.requests);
    d.add(s.dir.l2Misses);
    d.add(s.dir.recalls);
    d.add(s.dir.memReadBytes);
    d.add(s.dir.memWriteBytes);
    d.add(s.dir.bloomFalseProbes);
    d.add(s.dir.threeHopDirect);
    d.add(s.dir.ownedOneOwnerOnly);
    d.add(s.dir.ownedOneOwnerPlusSharers);
    d.add(s.dir.ownedMultiOwner);
    d.add(s.net.messages);
    d.add(s.net.bytes);
    d.add(s.net.flits);
    d.add(s.net.flitHops);
    d.add(s.kernel.eventsScheduled);
    d.add(s.kernel.eventsExecuted);
    d.add(s.kernel.bucketScheduled);
    d.add(s.kernel.heapScheduled);
    d.add(s.kernel.maxQueueDepth);
    d.add(s.instructions);
    d.add(s.cycles);
}

} // namespace protozoa

#endif // PROTOZOA_TESTS_STATS_DIGEST_HH
