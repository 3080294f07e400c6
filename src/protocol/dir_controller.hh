/**
 * @file
 * Shared-L2 tile with in-cache directory: the home node of the
 * Protozoa protocol family.
 *
 * Each tile owns an address-interleaved slice of an inclusive shared
 * L2. The directory entry is collocated with the L2 block and tracks
 * sharers at REGION granularity only (Table 2): a reader set and a
 * writer set of cores, with no per-word information — exactly the
 * paper's "same in-cache fixed-granularity directory structure as
 * MESI", where Protozoa-MW doubles the entry to separate readers from
 * writers and Protozoa-SW+MR adds only the single-writer identity.
 *
 * One coherence transaction is active per region at a time; later
 * requests queue (the paper's per-REGION serialization). The protocol
 * variant decides only (a) the probe range (full region for MESI/SW,
 * the request range for SW+MR/MW), (b) the keepNonOverlap and
 * revokeWritePerm probe flags, and (c) how many concurrent writers the
 * writer set may hold. All three come from the protocol's
 * ProtocolTraits row (common/config.hh): (a) and keepNonOverlap from
 * wordGranularCoherence, revokeWritePerm() derived from it and
 * singleWriter, and (c) from singleWriter. No code here names a
 * ProtocolKind.
 *
 * The legal (state, event) -> next-state tuples of this controller —
 * abstract states NP/I/R/W/WR/MW over the region's reader/writer sets,
 * transaction-granular events — are enumerated in the documented
 * transition inventory of protocol/conformance.hh (the
 * implementation-level Table 3) and checked at run time: an
 * undocumented tuple panics.
 */

#ifndef PROTOZOA_PROTOCOL_DIR_CONTROLLER_HH
#define PROTOZOA_PROTOCOL_DIR_CONTROLLER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/core_mask.hh"
#include "common/event_queue.hh"
#include "common/flat_table.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/snapshot_tags.hh"
#include "common/stats.hh"
#include "mem/golden_memory.hh"
#include "protocol/bloom_directory.hh"
#include "protocol/coherence_msg.hh"
#include "protocol/conformance.hh"
#include "protocol/router.hh"

namespace protozoa {

class DirController
{
  public:
    DirController(TileId id, const SystemConfig &cfg, EventQueue &eq,
                  Router &router, WordStore &mem_image,
                  ConformanceCoverage *coverage = nullptr);
    ~DirController();
    DirController(const DirController &) = delete;
    DirController &operator=(const DirController &) = delete;

    /** Deliver a coherence message from the interconnect. */
    void receive(CoherenceMsg msg);

    TileId id() const { return tileId; }

    /** True when no transaction is active and no request is queued. */
    bool idle() const { return active.empty() && waiting.empty(); }

    DirStats stats;

    /** Directory view of a region, for invariant checkers and tests. */
    struct DirView
    {
        bool present = false;
        CoreSet readers;
        CoreSet writers;
        bool dirty = false;
    };
    DirView view(Addr region);

    /** Watchdog view of one in-flight transaction. */
    struct TxnView
    {
        Addr region = 0;
        Cycle start = 0;
        bool recall = false;
        unsigned pending = 0;
        bool waitingUnblock = false;
        std::size_t queued = 0;
    };
    /** Every active transaction of this tile (deadlock-watchdog scan). */
    std::vector<TxnView> activeTxns() const;

    /** Diagnostic description of a region's directory-side state. */
    std::string describeRegion(Addr region);

    /** True when a coherence transaction is active on @p region. */
    bool hasActiveTxn(Addr region) const { return active.contains(region); }

    // ---- canonical state snapshots (protocheck fingerprinting) ------

    /** Snapshot of one valid L2 entry. */
    struct EntrySnap
    {
        Addr region = 0;
        bool filling = false;
        bool dirty = false;
        CoreSet readers;
        CoreSet writers;
        std::uint64_t lruStamp = 0;
        unsigned setIndex = 0;
        const std::uint64_t *words = nullptr;
        unsigned wordCount = 0;
    };

    /** Visit every valid L2 entry, set by set. */
    template <typename F>
    void
    forEachEntry(F &&fn) const
    {
        for (unsigned s = 0; s < setsPerTile; ++s) {
            if (!setBase[s])
                continue;
            const std::size_t first = firstWay(s);
            for (std::size_t k = first; k < first + cfg.l2Assoc; ++k) {
                if (tags[k] == kNoRegion)
                    continue;
                const L2Entry &e = wayEntry(k);
                fn(EntrySnap{e.region, e.filling, e.dirty,
                             e.readers, e.writers,
                             e.lruStamp, s, e.words.data(),
                             e.wordCount});
            }
        }
    }

    /** Snapshot of one in-flight transaction. */
    struct TxnSnap
    {
        Addr region = 0;
        bool recall = false;
        MsgType reqType = MsgType::GETS;
        CoreId requester = 0;
        WordRange reqRange;
        bool upgrade = false;
        unsigned pending = 0;
        bool waitingUnblock = false;
        bool directSupplied = false;
        bool unblocked = false;
        Addr parentRegion = 0;
    };

    /** Visit every active transaction (unspecified region order). */
    template <typename F>
    void
    forEachTxn(F &&fn) const
    {
        active.forEach([&](Addr region, const Txn &t) {
            fn(TxnSnap{region, t.kind == Txn::Kind::Recall, t.reqType,
                       t.requester, t.reqRange, t.upgrade, t.pending,
                       t.waitingUnblock, t.directSupplied, t.unblocked,
                       t.parentRegion});
        });
    }

    /**
     * Visit queued requests as (region, msg), FIFO order within a
     * region; region order is unspecified (hash-table order).
     */
    template <typename F>
    void
    forEachWaitingMsg(F &&fn) const
    {
        waiting.forEach(
            [&](Addr region,
                const PooledFifo<CoherenceMsg>::Queue &q) {
                waitPool.forEach(q, [&](const CoherenceMsg &m) {
                    fn(region, m);
                });
            });
    }

    // --- saveable events (snapshot subsystem) ---

    /** Pipeline-delayed hand-off of one outgoing message to the
     *  router. */
    struct SendEvent
    {
        DirController *dir;
        CoherenceMsg msg;

        void operator()() { dir->router.send(std::move(msg)); }

        void
        saveEvent(Serializer &s) const
        {
            s.writeU8(static_cast<std::uint8_t>(EventKind::DirSend));
            s.writeU16(dir->tileId);
            s.writeRaw(msg);
        }
    };

    /** Memory-latency-delayed completion of an L2 fill. */
    struct FillEvent
    {
        DirController *dir;
        Addr region;

        void operator()() const { dir->finishFill(region); }

        void
        saveEvent(Serializer &s) const
        {
            s.writeU8(static_cast<std::uint8_t>(EventKind::DirFill));
            s.writeU16(dir->tileId);
            s.writeU64(region);
        }
    };

    /** Serialize / restore all mutable tile state (L2 sets, active
     *  transactions, wait queues, Bloom counters, occupancy, stats). */
    void saveState(Serializer &s) const;
    bool restoreState(Deserializer &d);

    /** L2 sets given a tag block so far (each by its first miss). */
    std::size_t materializedSets() const { return tagBlocks; }
    /** L2 entries allocated so far (each by its way's first fill). */
    std::size_t allocatedEntries() const { return entryCount; }
    /** The tile's one L2 storage mapping (tag blocks, entries and
     *  entry ids), for residency checks. */
    std::span<const std::byte> storageMapping() const;

    /**
     * One L2 block + directory entry. Snapshots carry it raw, set by
     * set; a value-initialized entry is all zero bytes, and a way never
     * filled is saved as one.
     */
    struct L2Entry
    {
        bool valid = false;
        /** Data words are being fetched from memory. */
        bool filling = false;
        bool dirty = false;
        Addr region = 0;
        std::uint64_t lruStamp = 0;
        CoreSet readers;
        CoreSet writers;
        /**
         * Data words, inline: fetchFromMemory fills them with one
         * bulk memcpy from the memory image and never allocates.
         * wordCount is 0 until the first fill and regionWords()
         * afterwards (it survives slot reuse, exactly like the size
         * of the heap vector this replaces, so protocheck
         * fingerprints are unchanged).
         */
        std::array<std::uint64_t, kMaxRegionWords> words;
        unsigned wordCount = 0;
    };

  private:
    /** An in-flight transaction (request or inclusive-eviction recall). */
    struct Txn
    {
        enum class Kind { Request, Recall };
        Kind kind = Kind::Request;
        MsgType reqType = MsgType::GETS;
        CoreId requester = 0;
        WordRange reqRange;
        bool upgrade = false;
        unsigned pending = 0;
        bool waitingUnblock = false;
        /** A probed owner sent DATA directly to the requester. */
        bool directSupplied = false;
        /** The requester's UNBLOCK arrived before respond() ran. */
        bool unblocked = false;
        /** Recall only: the region whose miss triggered the recall. */
        Addr parentRegion = 0;

        /** Cycle the transaction began (deadlock-watchdog bound). */
        Cycle start = 0;
        /** Abstract state when the transaction began (coverage). */
        DirState covBefore = DirState::NP;
        /** Abstract event of this transaction (coverage). */
        DirEvent covEvent = DirEvent::GetS;
    };

    Cycle occupy(Cycle latency);
    void sendMsg(CoherenceMsg msg, Cycle when);

    /** Tag of an invalid way: regions are regionBytes-aligned, so no
     *  region equals it. */
    static constexpr Addr kNoRegion = ~Addr(0);

    unsigned setIndexOf(Addr region) const;
    /** Index in tags/entryIds of touched set @p s's way 0. */
    std::size_t
    firstWay(unsigned s) const
    {
        return std::size_t(setBase[s] - 1) * cfg.l2Assoc;
    }
    /** Way @p k's entry; the way must have been filled. */
    L2Entry &wayEntry(std::size_t k) const
    {
        return entries[entryIds[k] - 1];
    }
    /** Give untouched set @p s a tag block of invalid ways; returns
     *  its firstWay. */
    std::size_t materialize(unsigned s);
    /** Way @p k's entry, allocated at the end of entries on first use
     *  (a blank entry, as a never-filled way reads). */
    L2Entry &entryForFill(std::size_t k);
    /** The tag holding @p region, or nullptr when it is not cached. */
    Addr *findTag(Addr region);
    L2Entry *lookup(Addr region);
    /** True when a region has an active txn or queued messages. */
    bool busy(Addr region) const;

    void dispatch(const CoherenceMsg &msg);
    void startRequest(const CoherenceMsg &msg);
    void beginRecall(Addr victim, Addr parent);
    void finishRecall(Addr victim);
    void fetchFromMemory(Addr region);
    /** FillEvent body: copy the words in and run the probe phase. */
    void finishFill(Addr region);
    void probePhase(Addr region);
    void handleProbeResponse(const CoherenceMsg &msg);
    void respond(Addr region);
    void handlePut(const CoherenceMsg &msg);
    void finishTxn(Addr region);
    void drainQueue(Addr region);

    /** Abstract coverage state of a region's sharer sets. */
    DirState absState(const L2Entry *entry) const;
    /** Record into the coverage matrix (no-op without a tracker). */
    void cov(DirState from, DirEvent ev, DirState to);

    void patchPayload(L2Entry &entry, const MsgData &data);
    void updateSetsFromResponse(L2Entry &entry, const CoherenceMsg &msg);
    void recordOwnedCensus(const L2Entry &entry);

    // Sharer-set transitions: every mutation goes through these so an
    // imprecise (Bloom) summary stays a superset of the exact sets.
    void setReader(L2Entry &entry, CoreId core);
    void clearReader(L2Entry &entry, CoreId core);
    void setWriter(L2Entry &entry, CoreId core);
    void clearWriter(L2Entry &entry, CoreId core);
    /** Drop every tracked sharer of @p entry (slot reuse). */
    void clearAllSharers(L2Entry &entry);
    /** Probe-target sets: exact, or the Bloom superset. */
    CoreSet probeWriters(const L2Entry &entry) const;
    CoreSet probeReaders(const L2Entry &entry) const;

    const SystemConfig &cfg;
    /** cfg.protocol's row, cached so no request re-derives it. */
    const ProtocolTraits &traits;
    EventQueue &eventq;
    Router &router;
    WordStore &memImage;
    ConformanceCoverage *coverage;

    unsigned setsPerTile;
    /** Packed into setsPerTile's padding: sweeps build 16 of these per
     *  System, and their malloc size class shows in peak RSS. */
    TileId tileId;
    /** log2(cfg.regionBytes); validate() requires a power of two. */
    std::uint8_t regionShift;
    /**
     * L2 storage, sized for every way of every set and carved out of
     * one PageAllocator mapping, so untouched capacity stays
     * non-resident and nothing ever moves. Each array is used from its
     * front:
     *  - tags: one block of l2Assoc region tags per touched set, in
     *    order of the set's first miss, kNoRegion on invalid ways (at 8
     *    ways a block is one 64-byte host line). A tag changes only
     *    where its entry changes identity: a fill, a recall hand-off
     *    and restoreState.
     *  - entries: one L2Entry per way ever filled, in order of first
     *    fill; a way never filled has none.
     *  - entryIds: parallel to tags, 1 + the way's index in entries,
     *    or 0 before its first fill.
     */
    Addr *tags;
    L2Entry *entries;
    std::uint32_t *entryIds;
    std::uint32_t tagBlocks = 0;
    std::uint32_t entryCount = 0;
    /** Per set: 1 + its tag block's index, or 0 while untouched. */
    std::unique_ptr<std::uint32_t[]> setBase;

    // Per-region transaction and wait-queue bookkeeping: flat
    // open-addressing tables plus a pooled FIFO arena, so the
    // steady-state request path performs no node allocation. Entry
    // pointers are invalidated by any insert or erase on the same
    // table (backshift deletion relocates entries) — re-find after
    // every dispatch.
    AddrTable<Txn> active;
    AddrTable<PooledFifo<CoherenceMsg>::Queue> waiting;
    PooledFifo<CoherenceMsg> waitPool;

    /** TaglessBloom mode: Bloom-summarized sharer tracking. */
    std::unique_ptr<CountingBloomSharers> bloomReaders;
    std::unique_ptr<CountingBloomSharers> bloomWriters;

    std::uint64_t lruClock = 0;
    Cycle busyUntil = 0;
    /** Occupancy fault injection (cfg.occupancyJitter). */
    Rng occRng;
};

} // namespace protozoa

#endif // PROTOZOA_PROTOCOL_DIR_CONTROLLER_HH
