#include "protocol/dir_controller.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/log.hh"
#include "common/page_allocator.hh"

namespace protozoa {

namespace {

/** What a never-filled way holds; static storage zeroes the padding
 *  too, so it matches a value-initialized entry byte for byte. */
const DirController::L2Entry kBlankEntry{};

bool
isBlank(const DirController::L2Entry &e)
{
    return std::memcmp(&e, &kBlankEntry, sizeof(e)) == 0;
}

/** Bytes of the L2 storage mapping of a tile with @p ways ways: tags,
 *  entries, then entry ids. */
std::size_t
storageBytes(std::size_t ways)
{
    return ways * (sizeof(Addr) + sizeof(DirController::L2Entry) +
                   sizeof(std::uint32_t));
}

} // namespace

DirController::DirController(TileId id, const SystemConfig &config,
                             EventQueue &eq, Router &rt,
                             WordStore &mem,
                             ConformanceCoverage *cov_tracker)
    : cfg(config), traits(protocolTraits(config.protocol)), eventq(eq),
      router(rt), memImage(mem), coverage(cov_tracker), tileId(id),
      regionShift(static_cast<std::uint8_t>(
          std::countr_zero(config.regionBytes))),
      occRng(config.seed ^ 0x646972ULL ^ (std::uint64_t(id) << 40))
{
    const std::uint64_t blocks = cfg.l2BytesPerTile / cfg.regionBytes;
    setsPerTile = static_cast<unsigned>(blocks / cfg.l2Assoc);
    PROTO_ASSERT(setsPerTile > 0, "L2 tile too small");
    static_assert(alignof(L2Entry) <= alignof(Addr));
    const std::size_t ways = std::size_t(setsPerTile) * cfg.l2Assoc;
    tags = reinterpret_cast<Addr *>(
        PageAllocator<std::byte>().allocate(storageBytes(ways)));
    entries = reinterpret_cast<L2Entry *>(tags + ways);
    entryIds = reinterpret_cast<std::uint32_t *>(entries + ways);
    setBase = std::make_unique<std::uint32_t[]>(setsPerTile);

    if (cfg.directory == DirectoryKind::TaglessBloom) {
        bloomReaders = std::make_unique<CountingBloomSharers>(
            cfg.bloomBuckets, cfg.bloomHashes, cfg.numCores);
        bloomWriters = std::make_unique<CountingBloomSharers>(
            cfg.bloomBuckets, cfg.bloomHashes, cfg.numCores);
    }
}

DirController::~DirController()
{
    PageAllocator<std::byte>().deallocate(
        reinterpret_cast<std::byte *>(tags),
        storageBytes(std::size_t(setsPerTile) * cfg.l2Assoc));
}

std::span<const std::byte>
DirController::storageMapping() const
{
    return {reinterpret_cast<const std::byte *>(tags),
            storageBytes(std::size_t(setsPerTile) * cfg.l2Assoc)};
}

void
DirController::setReader(L2Entry &entry, CoreId core)
{
    if (!entry.readers.test(core)) {
        entry.readers.set(core);
        if (bloomReaders)
            bloomReaders->add(entry.region, core);
    }
}

void
DirController::clearReader(L2Entry &entry, CoreId core)
{
    if (entry.readers.test(core)) {
        entry.readers.reset(core);
        if (bloomReaders)
            bloomReaders->remove(entry.region, core);
    }
}

void
DirController::setWriter(L2Entry &entry, CoreId core)
{
    if (!entry.writers.test(core)) {
        entry.writers.set(core);
        if (bloomWriters)
            bloomWriters->add(entry.region, core);
    }
}

void
DirController::clearWriter(L2Entry &entry, CoreId core)
{
    if (entry.writers.test(core)) {
        entry.writers.reset(core);
        if (bloomWriters)
            bloomWriters->remove(entry.region, core);
    }
}

void
DirController::clearAllSharers(L2Entry &entry)
{
    entry.readers.forEach(
        [&](CoreId c) { clearReader(entry, c); });
    entry.writers.forEach(
        [&](CoreId c) { clearWriter(entry, c); });
}

CoreSet
DirController::probeWriters(const L2Entry &entry) const
{
    if (!bloomWriters)
        return entry.writers;
    return bloomWriters->query(entry.region);
}

CoreSet
DirController::probeReaders(const L2Entry &entry) const
{
    if (!bloomReaders)
        return entry.readers;
    // A Bloom-writer core receives FWD_GETX already; do not also INV.
    return bloomReaders->query(entry.region).minus(probeWriters(entry));
}

DirState
DirController::absState(const L2Entry *entry) const
{
    if (!entry || entry->filling)
        return DirState::NP;
    const unsigned writers = entry->writers.count();
    if (writers > 1)
        return DirState::MW;
    if (writers == 1)
        return entry->readers.any() ? DirState::WR : DirState::W;
    return entry->readers.any() ? DirState::R : DirState::I;
}

void
DirController::cov(DirState from, DirEvent ev, DirState to)
{
    if (coverage)
        coverage->recordDir(from, ev, to);
}

Cycle
DirController::occupy(Cycle latency)
{
    if (cfg.occupancyJitter)
        latency += occRng.below(cfg.occupancyJitterMax + 1);
    const Cycle start = std::max(eventq.now(), busyUntil);
    busyUntil = start + latency;
    return busyUntil;
}

void
DirController::sendMsg(CoherenceMsg msg, Cycle when)
{
    msg.srcNode = tileId;
    msg.dstIsDir = false;
    eventq.scheduleAt(when, SendEvent{this, std::move(msg)});
}

unsigned
DirController::setIndexOf(Addr region) const
{
    const Addr region_index = region >> regionShift;
    return static_cast<unsigned>((region_index / cfg.l2Tiles) %
                                 setsPerTile);
}

std::size_t
DirController::materialize(unsigned s)
{
    setBase[s] = ++tagBlocks;
    const std::size_t first = firstWay(s);
    std::fill_n(tags + first, cfg.l2Assoc, kNoRegion);
    // Already zero; writing first makes a fresh page's first touch one
    // fault rather than a zero-page read and a copy on write.
    std::fill_n(entryIds + first, cfg.l2Assoc, 0);
    return first;
}

DirController::L2Entry &
DirController::entryForFill(std::size_t k)
{
    if (!entryIds[k]) {
        ::new (&entries[entryCount]) L2Entry();
        entryIds[k] = ++entryCount;
    }
    return wayEntry(k);
}

Addr *
DirController::findTag(Addr region)
{
    const unsigned s = setIndexOf(region);
    if (!setBase[s])
        return nullptr;
    Addr *const set = tags + firstWay(s);
    Addr *const end = set + cfg.l2Assoc;
    Addr *const tag = std::find(set, end, region);
    return tag == end ? nullptr : tag;
}

DirController::L2Entry *
DirController::lookup(Addr region)
{
    const Addr *tag = findTag(region);
    return tag ? &wayEntry(tag - tags) : nullptr;
}

bool
DirController::busy(Addr region) const
{
    if (active.contains(region))
        return true;
    // A region with no active transaction is still pinned by queued
    // requests *for that region* (they reactivate it when drained).
    // Requests for other regions deferred behind it must not count:
    // during drainQueue each re-dispatched waiter would see its
    // sibling waiter in the queue, conclude the region is pinned, and
    // re-defer behind it — two cross-region waiters then block each
    // other forever (reachable with 3+ cores storming one L2 set).
    const auto *q = waiting.find(region);
    if (!q)
        return false;
    bool own = false;
    waitPool.forEach(*q, [&](const CoherenceMsg &m) {
        own = own || m.region == region;
    });
    return own;
}

DirController::DirView
DirController::view(Addr region)
{
    DirView v;
    if (const L2Entry *e = lookup(region)) {
        v.present = true;
        v.readers = e->readers;
        v.writers = e->writers;
        v.dirty = e->dirty;
    }
    return v;
}

void
DirController::receive(CoherenceMsg msg)
{
    PROTO_DTRACE("dir%u <- %s", tileId, msg.toString().c_str());
    switch (msg.type) {
      case MsgType::GETS:
      case MsgType::GETX:
      case MsgType::PUT:
        if (active.contains(msg.region)) {
            waitPool.push(*waiting.findOrCreate(msg.region),
                          std::move(msg));
            return;
        }
        dispatch(msg);
        break;
      case MsgType::UNBLOCK:
        finishTxn(msg.region);
        break;
      case MsgType::WB_RESP:
      case MsgType::ACK:
      case MsgType::ACK_S:
      case MsgType::NACK:
        handleProbeResponse(msg);
        break;
      default:
        panic("dir %u: unexpected message %s", tileId,
              msg.toString().c_str());
    }
}

void
DirController::dispatch(const CoherenceMsg &msg)
{
    switch (msg.type) {
      case MsgType::GETS:
      case MsgType::GETX:
        startRequest(msg);
        break;
      case MsgType::PUT:
        handlePut(msg);
        break;
      default:
        panic("dir %u: cannot dispatch %s", tileId,
              msg.toString().c_str());
    }
}

void
DirController::startRequest(const CoherenceMsg &msg)
{
    ++stats.requests;

    Txn txn;
    txn.kind = Txn::Kind::Request;
    txn.reqType = msg.type;
    txn.requester = msg.sender;
    txn.reqRange = msg.range;
    txn.upgrade = msg.upgrade;
    txn.start = eventq.now();
    const L2Entry *hit = lookup(msg.region);
    txn.covBefore = absState(hit);
    txn.covEvent = msg.type == MsgType::GETS
        ? DirEvent::GetS
        : (msg.upgrade ? DirEvent::Upgrade : DirEvent::GetX);
    active.emplace(msg.region, txn);

    occupy(cfg.l2Latency);

    if (hit) {
        probePhase(msg.region);
        return;
    }

    // L2 miss: reserve a slot, possibly recalling an inclusive victim.
    ++stats.l2Misses;
    const unsigned si = setIndexOf(msg.region);
    const std::size_t first =
        setBase[si] ? firstWay(si) : materialize(si);
    const std::size_t end = first + cfg.l2Assoc;
    const std::size_t free_way =
        std::find(tags + first, tags + end, kNoRegion) - tags;

    if (free_way == end) {
        // Every way is valid: evict the LRU entry that is not
        // mid-transaction.
        const L2Entry *slot = nullptr;
        for (std::size_t k = first; k < end; ++k) {
            const L2Entry &entry = wayEntry(k);
            if (entry.filling || busy(entry.region))
                continue;
            if (!slot || entry.lruStamp < slot->lruStamp)
                slot = &entry;
        }
        if (!slot) {
            // Every entry is mid-fill or mid-transaction: the set is
            // transiently pinned (reachable with a one-entry set when
            // two regions' requests interleave; protocheck's
            // recall-inclusive scenario drives this). Defer behind the
            // first pinning region; its completion drains us a retry.
            const Addr *blocker = std::find_if(
                tags + first, tags + end,
                [&](Addr region) { return busy(region); });
            if (blocker == tags + end)
                panic("dir %u: no evictable L2 entry in set %u",
                      tileId, si);
            active.erase(msg.region);
            --stats.requests;
            --stats.l2Misses;
            waitPool.push(*waiting.findOrCreate(*blocker), msg);
            return;
        }
        const Addr victim = slot->region;
        beginRecall(victim, msg.region);
        return;
    }

    tags[free_way] = msg.region;
    L2Entry &slot = entryForFill(free_way);
    slot.valid = true;
    slot.filling = true;
    slot.dirty = false;
    slot.region = msg.region;
    slot.readers = CoreSet();
    slot.writers = CoreSet();
    slot.lruStamp = ++lruClock;
    fetchFromMemory(msg.region);
}

void
DirController::beginRecall(Addr victim, Addr parent)
{
    ++stats.recalls;
    L2Entry *entry = lookup(victim);
    PROTO_ASSERT(entry, "recall of absent region");

    Txn txn;
    txn.kind = Txn::Kind::Recall;
    txn.parentRegion = parent;
    txn.reqRange = WordRange::full(cfg.regionWords());
    txn.start = eventq.now();
    txn.covBefore = absState(entry);
    txn.covEvent = DirEvent::Recall;

    unsigned probes = 0;
    const Cycle when = occupy(cfg.l2Latency);
    CoreSet holders = entry->readers;
    holders |= entry->writers;
    holders.forEach([&](CoreId c) {
        CoherenceMsg inv;
        inv.type = MsgType::INV;
        inv.dstNode = c;
        inv.region = victim;
        inv.range = WordRange::full(cfg.regionWords());
        inv.keepNonOverlap = false;
        sendMsg(std::move(inv), when);
        ++probes;
    });

    txn.pending = probes;
    active.emplace(victim, txn);
    if (probes == 0)
        finishRecall(victim);
}

void
DirController::finishRecall(Addr victim)
{
    Txn *txn = active.find(victim);
    PROTO_ASSERT(txn && txn->kind == Txn::Kind::Recall,
                 "finishRecall without recall txn");
    const Addr parent = txn->parentRegion;
    cov(txn->covBefore, DirEvent::Recall, DirState::NP);

    Addr *tag = findTag(victim);
    PROTO_ASSERT(tag, "recall victim vanished");
    L2Entry *entry = &wayEntry(tag - tags);
    if (entry->dirty) {
        memImage.writeRange(victim, entry->words.data(),
                            cfg.regionWords());
        stats.memWriteBytes += cfg.regionBytes;
    }

    // Hand the slot to the parent region (same set, same way).
    *tag = parent;
    clearAllSharers(*entry);
    entry->valid = true;
    entry->filling = true;
    entry->dirty = false;
    entry->region = parent;
    entry->lruStamp = ++lruClock;

    active.erase(victim);
    fetchFromMemory(parent);
    drainQueue(victim);
}

void
DirController::fetchFromMemory(Addr region)
{
    stats.memReadBytes += cfg.regionBytes;
    const Cycle when = occupy(cfg.l2Latency) + cfg.memLatency;
    eventq.scheduleAt(when, FillEvent{this, region});
}

void
DirController::finishFill(Addr region)
{
    L2Entry *entry = lookup(region);
    PROTO_ASSERT(entry && entry->filling, "fill target vanished");
    entry->wordCount = cfg.regionWords();
    memImage.readRange(region, entry->words.data(),
                       cfg.regionWords());
    entry->filling = false;
    probePhase(region);
}

void
DirController::recordOwnedCensus(const L2Entry &entry)
{
    if (entry.writers.none())
        return;
    if (entry.writers.count() > 1)
        ++stats.ownedMultiOwner;
    else if (entry.readers.any())
        ++stats.ownedOneOwnerPlusSharers;
    else
        ++stats.ownedOneOwnerOnly;
}

void
DirController::probePhase(Addr region)
{
    Txn *txn_p = active.find(region);
    PROTO_ASSERT(txn_p, "probePhase without txn");
    Txn &txn = *txn_p;
    L2Entry *entry = lookup(region);
    PROTO_ASSERT(entry && !entry->filling, "probePhase without entry");

    recordOwnedCensus(*entry);

    const WordRange probe_range =
        traits.wordGranularCoherence ? txn.reqRange
                                     : WordRange::full(cfg.regionWords());

    const Cycle when = occupy(cfg.l2Latency);

    const CoreSet probe_writers = probeWriters(*entry);
    const CoreSet probe_readers = probeReaders(*entry);
    auto count_false = [&](CoreId c) {
        if (!entry->writers.test(c) && !entry->readers.test(c))
            ++stats.bloomFalseProbes;
    };

    SmallVec<CoherenceMsg, 18> probes;
    if (txn.reqType == MsgType::GETX) {
        probe_writers.forEach([&](CoreId c) {
            if (c == txn.requester)
                return;
            CoherenceMsg fwd;
            fwd.type = MsgType::FWD_GETX;
            fwd.dstNode = c;
            fwd.region = region;
            fwd.range = probe_range;
            fwd.requester = txn.requester;
            fwd.keepNonOverlap = traits.wordGranularCoherence;
            fwd.revokeWritePerm = traits.revokeWritePerm();
            count_false(c);
            probes.push_back(std::move(fwd));
        });
        probe_readers.forEach([&](CoreId c) {
            if (c == txn.requester)
                return;
            CoherenceMsg inv;
            inv.type = MsgType::INV;
            inv.dstNode = c;
            inv.region = region;
            inv.range = probe_range;
            inv.requester = txn.requester;
            inv.keepNonOverlap = traits.wordGranularCoherence;
            count_false(c);
            probes.push_back(std::move(inv));
        });
    } else {
        probe_writers.forEach([&](CoreId c) {
            if (c == txn.requester)
                return;
            CoherenceMsg fwd;
            fwd.type = MsgType::FWD_GETS;
            fwd.dstNode = c;
            fwd.region = region;
            fwd.range = probe_range;
            fwd.requester = txn.requester;
            count_false(c);
            probes.push_back(std::move(fwd));
        });
    }

    // Sec. 6 3-hop: with a single probe target the owner may forward
    // the data straight to the requester (4-hop is the fallback).
    if (cfg.threeHop && probes.size() == 1 && !txn.upgrade) {
        probes.front().tryDirect = true;
        probes.front().reqFetchRange = txn.reqRange;
    }

    txn.pending = static_cast<unsigned>(probes.size());
    for (auto &probe : probes)
        sendMsg(std::move(probe), when);
    if (txn.pending == 0)
        respond(region);
}

void
DirController::patchPayload(L2Entry &entry, const MsgData &data)
{
    if (data.empty())
        return;
    PROTO_ASSERT(!entry.filling, "patch into filling entry");
    data.forEachRun([&](const WordRange &run, const std::uint64_t *src) {
        std::memcpy(&entry.words[run.start], src,
                    std::size_t(run.words()) * sizeof(std::uint64_t));
    });
    entry.dirty = true;
}

void
DirController::updateSetsFromResponse(L2Entry &entry,
                                      const CoherenceMsg &msg)
{
    PROTO_DTRACE("dir%u sets: region=%llx sender=%u stillO=%d stillS=%d "
                 "(was w=%s r=%s)",
                 tileId, static_cast<unsigned long long>(entry.region),
                 msg.sender, msg.stillOwner, msg.stillSharer,
                 entry.writers.toHex().c_str(),
                 entry.readers.toHex().c_str());
    if (msg.stillOwner) {
        setWriter(entry, msg.sender);
        clearReader(entry, msg.sender);
    } else if (msg.stillSharer) {
        clearWriter(entry, msg.sender);
        setReader(entry, msg.sender);
    } else {
        clearWriter(entry, msg.sender);
        clearReader(entry, msg.sender);
    }
}

void
DirController::handleProbeResponse(const CoherenceMsg &msg)
{
    Txn *txn_p = active.find(msg.region);
    PROTO_ASSERT(txn_p, "probe response without txn");
    Txn &txn = *txn_p;
    PROTO_ASSERT(txn.pending > 0, "unexpected probe response");

    L2Entry *entry = lookup(msg.region);
    PROTO_ASSERT(entry, "probe response without entry");
    patchPayload(*entry, msg.data);
    updateSetsFromResponse(*entry, msg);
    if (msg.suppliedDirect) {
        txn.directSupplied = true;
        ++stats.threeHopDirect;
    }

    occupy(cfg.l2Latency);

    if (--txn.pending > 0)
        return;
    if (txn.kind == Txn::Kind::Recall)
        finishRecall(msg.region);
    else
        respond(msg.region);
}

void
DirController::respond(Addr region)
{
    Txn *txn_p = active.find(region);
    PROTO_ASSERT(txn_p, "respond without txn");
    Txn &txn = *txn_p;
    L2Entry *entry = lookup(region);
    PROTO_ASSERT(entry && !entry->filling, "respond without entry");

    const CoreId req = txn.requester;

    CoherenceMsg data;
    data.type = MsgType::DATA;
    data.dstNode = req;
    data.region = region;
    data.range = txn.reqRange;
    data.requester = req;

    if (txn.reqType == MsgType::GETX) {
        // Payload-free upgrade: legal only while the requester stayed a
        // tracked reader, which guarantees its S copy is still fresh.
        const bool dataless = txn.upgrade && entry->readers.test(req);
        data.grant = GrantState::M;
        if (!dataless) {
            data.data.setRange(txn.reqRange,
                               &entry->words[txn.reqRange.start]);
        }
        setWriter(*entry, req);
        clearReader(*entry, req);
        PROTO_ASSERT(!traits.singleWriter || entry->writers.only(req),
                     "single-writer protocol with multiple owners: "
                     "region=%llx writers=%s readers=%s req=%u "
                     "upgrade=%d range=%s",
                     static_cast<unsigned long long>(region),
                     entry->writers.toHex().c_str(),
                     entry->readers.toHex().c_str(),
                     req, txn.upgrade, txn.reqRange.toString().c_str());
    } else {
        const bool exclusive =
            entry->writers.none() && entry->readers.none();
        data.grant = exclusive ? GrantState::E : GrantState::S;
        if (exclusive || entry->writers.test(req)) {
            // E grant, or a secondary GETS from an existing owner:
            // either way the core keeps (or gains) writer tracking.
            setWriter(*entry, req);
        } else {
            setReader(*entry, req);
        }
        data.data.setRange(txn.reqRange,
                           &entry->words[txn.reqRange.start]);
    }

    entry->lruStamp = ++lruClock;
    cov(txn.covBefore, txn.covEvent, absState(entry));
    if (txn.directSupplied) {
        // 3-hop: the probed owner already sent DATA to the requester;
        // only the bookkeeping above was still needed.
        occupy(cfg.l2Latency);
    } else {
        sendMsg(std::move(data), occupy(cfg.l2Latency));
    }
    if (txn.unblocked) {
        // The requester's UNBLOCK beat the final probe response
        // (possible in 3-hop mode: the requester is served directly).
        active.erase(region);
        drainQueue(region);
        return;
    }
    txn.waitingUnblock = true;
}

void
DirController::handlePut(const CoherenceMsg &msg)
{
    occupy(cfg.l2Latency);
    L2Entry *entry = lookup(msg.region);
    const bool tracked =
        entry && (entry->readers.test(msg.sender) ||
                  entry->writers.test(msg.sender));
    const DirState before = absState(entry);

    if (tracked) {
        patchPayload(*entry, msg.data);
        if (msg.last) {
            clearReader(*entry, msg.sender);
            clearWriter(*entry, msg.sender);
        } else if (msg.demoteOwner) {
            clearWriter(*entry, msg.sender);
            setReader(*entry, msg.sender);
        }
        entry->lruStamp = ++lruClock;
        const DirEvent ev = msg.last
            ? DirEvent::PutLast
            : (msg.demoteOwner ? DirEvent::PutDemote : DirEvent::Put);
        cov(before, ev, absState(entry));
    } else {
        cov(before, DirEvent::PutStale, before);
    }
    // Untracked PUTs are stale (their data was already collected by a
    // forwarded probe answered from the writeback buffer): drop data.

    CoherenceMsg ack;
    ack.type = MsgType::WB_ACK;
    ack.dstNode = msg.sender;
    ack.region = msg.region;
    sendMsg(std::move(ack), occupy(0));
}

void
DirController::finishTxn(Addr region)
{
    Txn *txn = active.find(region);
    PROTO_ASSERT(txn, "UNBLOCK without txn");
    occupy(cfg.l2Latency);
    if (!txn->waitingUnblock) {
        // 3-hop: the directly-served requester can UNBLOCK before the
        // directory has collected the final probe response; remember
        // it and finish in respond().
        PROTO_ASSERT(cfg.threeHop, "early UNBLOCK without 3-hop mode");
        txn->unblocked = true;
        return;
    }
    active.erase(region);
    drainQueue(region);
}

std::vector<DirController::TxnView>
DirController::activeTxns() const
{
    std::vector<TxnView> out;
    out.reserve(active.size());
    active.forEach([&](Addr region, const Txn &txn) {
        TxnView v;
        v.region = region;
        v.start = txn.start;
        v.recall = txn.kind == Txn::Kind::Recall;
        v.pending = txn.pending;
        v.waitingUnblock = txn.waitingUnblock;
        const auto *q = waiting.find(region);
        v.queued = q ? q->size() : 0;
        out.push_back(v);
    });
    return out;
}

std::string
DirController::describeRegion(Addr region)
{
    std::ostringstream os;
    os << "dir" << tileId << " region 0x" << std::hex << region
       << std::dec << ": ";
    if (const L2Entry *e = lookup(region)) {
        os << "entry " << dirStateName(absState(e))
           << (e->filling ? " (filling)" : "")
           << (e->dirty ? " dirty" : " clean")
           << " readers=0x" << e->readers.toHex()
           << " writers=0x" << e->writers.toHex();
    } else {
        os << "no entry";
    }
    if (const Txn *t = active.find(region)) {
        os << "; txn " << (t->kind == Txn::Kind::Recall ? "recall"
                                                        : "request")
           << " (" << dirEventName(t->covEvent) << ") from core "
           << t->requester << " started @" << t->start
           << ", pending probes=" << t->pending
           << (t->waitingUnblock ? ", waiting UNBLOCK" : "");
    } else {
        os << "; no active txn";
    }
    if (const auto *q = waiting.find(region); q && !q->empty()) {
        os << "; queued:";
        waitPool.forEach(*q, [&](const CoherenceMsg &m) {
            os << " " << m.toString();
        });
    }
    return os.str();
}

void
DirController::drainQueue(Addr region)
{
    auto *q = waiting.find(region);
    if (!q)
        return;
    while (!q->empty() && !active.contains(region)) {
        CoherenceMsg msg = waitPool.popFront(*q);
        // A request deferred by a pinned L2 set waits in *another*
        // region's queue; requeue it if its own region became active
        // while it waited.
        const bool requeue =
            msg.region != region && active.contains(msg.region);
        if (q->empty()) {
            waiting.erase(region);
            if (requeue)
                waitPool.push(*waiting.findOrCreate(msg.region),
                              std::move(msg));
            else
                dispatch(msg);
            return;
        }
        // dispatch() may recurse into other regions' queues and
        // relocate table entries; re-find our queue handle after it.
        if (requeue)
            waitPool.push(*waiting.findOrCreate(msg.region),
                          std::move(msg));
        else
            dispatch(msg);
        q = waiting.find(region);
        if (!q)
            return;
    }
    if (q->empty())
        waiting.erase(region);
}

void
DirController::saveState(Serializer &s) const
{
    static_assert(std::is_trivially_copyable_v<DirStats>);
    static_assert(std::is_trivially_copyable_v<L2Entry>);
    static_assert(std::is_trivially_copyable_v<Txn>);
    s.writeRaw(stats);
    s.writeU64(lruClock);
    s.writeU64(busyUntil);
    std::uint64_t rng[4];
    occRng.stateWords(rng);
    for (const std::uint64_t w : rng)
        s.writeU64(w);

    // L2 sets raw, slot by slot: preserves slot positions (and hence
    // the lookup / victim scan order) exactly, stale slots included.
    // A way never filled reads as a value-initialized entry.
    s.writeU32(setsPerTile);
    s.writeU32(cfg.l2Assoc);
    for (unsigned si = 0; si < setsPerTile; ++si) {
        const std::size_t first = setBase[si] ? firstWay(si) : 0;
        for (std::size_t k = first; k < first + cfg.l2Assoc; ++k)
            s.writeRaw(setBase[si] && entryIds[k] ? wayEntry(k)
                                                  : kBlankEntry);
    }

    // Active transactions and wait queues, replayed at restore in the
    // same table order (per-region FIFO order is what matters).
    s.writeU32(static_cast<std::uint32_t>(active.size()));
    active.forEach([&](Addr region, const Txn &t) {
        s.writeU64(region);
        s.writeRaw(t);
    });
    std::uint32_t queued = 0;
    forEachWaitingMsg([&](Addr, const CoherenceMsg &) { ++queued; });
    s.writeU32(queued);
    forEachWaitingMsg([&](Addr region, const CoherenceMsg &m) {
        s.writeU64(region);
        s.writeRaw(m);
    });

    s.writeU8(bloomReaders ? 1 : 0);
    if (bloomReaders) {
        bloomReaders->saveState(s);
        bloomWriters->saveState(s);
    }
}

bool
DirController::restoreState(Deserializer &d)
{
    d.readRaw(stats);
    lruClock = d.readU64();
    busyUntil = d.readU64();
    std::uint64_t rng[4];
    for (std::uint64_t &w : rng)
        w = d.readU64();
    occRng.setStateWords(rng);

    if (d.readU32() != setsPerTile || d.readU32() != cfg.l2Assoc)
        return false;
    std::vector<L2Entry> in(cfg.l2Assoc);
    for (unsigned si = 0; si < setsPerTile; ++si) {
        bool touched = false;
        for (unsigned w = 0; w < cfg.l2Assoc; ++w) {
            L2Entry &e = in[w];
            d.readRaw(e);
            if (d.failed())
                return false;
            if (e.wordCount != 0 && e.wordCount != cfg.regionWords())
                return false;
            if (e.valid) {
                if (e.region % cfg.regionBytes != 0 ||
                    cfg.homeTileOf(e.region) != tileId ||
                    setIndexOf(e.region) != si)
                    return false;
                for (unsigned o = 0; o < w; ++o) {
                    if (in[o].valid && in[o].region == e.region)
                        return false;
                }
            }
            touched = touched || !isBlank(e);
        }
        // Only sets holding a non-blank entry take a tag block, and
        // only non-blank ways take an entry.
        if (!setBase[si] && !touched)
            continue;
        const std::size_t first =
            setBase[si] ? firstWay(si) : materialize(si);
        for (unsigned w = 0; w < cfg.l2Assoc; ++w) {
            const std::size_t k = first + w;
            tags[k] = in[w].valid ? in[w].region : kNoRegion;
            if (entryIds[k] || !isBlank(in[w]))
                std::memcpy(&entryForFill(k), &in[w], sizeof(L2Entry));
        }
    }

    const std::uint32_t txns = d.readU32();
    if (d.failed())
        return false;
    for (std::uint32_t i = 0; i < txns; ++i) {
        const Addr region = d.readU64();
        Txn t;
        d.readRaw(t);
        if (d.failed())
            return false;
        active.emplace(region, t);
    }
    const std::uint32_t queued = d.readU32();
    if (d.failed())
        return false;
    for (std::uint32_t i = 0; i < queued; ++i) {
        const Addr region = d.readU64();
        CoherenceMsg m;
        d.readRaw(m);
        if (d.failed())
            return false;
        waitPool.push(*waiting.findOrCreate(region), std::move(m));
    }

    const bool has_bloom = d.readU8() != 0;
    if (has_bloom != (bloomReaders != nullptr))
        return false;
    if (bloomReaders &&
        (!bloomReaders->restoreState(d) ||
         !bloomWriters->restoreState(d)))
        return false;
    return !d.failed();
}

} // namespace protozoa
