#include "cache/amoeba_cache.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace protozoa {

const char *
blockStateName(BlockState s)
{
    switch (s) {
      case BlockState::S: return "S";
      case BlockState::E: return "E";
      case BlockState::M: return "M";
    }
    return "?";
}

unsigned
AmoebaBlock::touchedWords() const
{
    return static_cast<unsigned>(
        std::popcount(touched & range.mask()));
}

AmoebaCache::AmoebaCache(const SystemConfig &cfg)
    : numSets(cfg.l1Sets), setBudget(cfg.l1BytesPerSet),
      regionBytes(cfg.regionBytes),
      regionShift(std::countr_zero(cfg.regionBytes)),
      slotCap(cfg.l1BytesPerSet / blockCost(WordRange(0, 0))),
      sets(cfg.l1Sets), order(std::size_t(cfg.l1Sets) * slotCap)
{
    PROTO_ASSERT(setBudget >= blockCost(WordRange::full(cfg.regionWords())),
                 "set budget cannot hold a full region");

    // Reserve (not touch) the worst case, every set packed with
    // minimum-size blocks: later inserts never reallocate, so block
    // pointers stay stable and the steady state allocates nothing.
    // Slots are constructed on first use, in first-use order, so the
    // pages a run touches are the ones its working set needs.
    const std::size_t cap = order.size();
    slab.reserve(cap);
    slotRegion.reserve(cap);
    slotCover.reserve(cap);
    slotLru.reserve(cap);
    freeSlots.reserve(cap);
}

unsigned
AmoebaCache::blockCost(const WordRange &r)
{
    return kTagBytes + r.bytes();
}

unsigned
AmoebaCache::setOf(Addr region) const
{
    return static_cast<unsigned>((region >> regionShift) % numSets);
}

AmoebaBlock *
AmoebaCache::findCovering(Addr region, unsigned word)
{
    const unsigned si = setOf(region);
    if (!((sets[si].coverage >> word) & 1))
        return nullptr;
    for (const std::uint32_t s : live(si)) {
        if (slotRegion[s] == region && ((slotCover[s] >> word) & 1))
            return &slab[s];
    }
    return nullptr;
}

void
AmoebaCache::blocksOfRegion(Addr region, BlockPtrs &out)
{
    for (const std::uint32_t s : live(setOf(region))) {
        if (slotRegion[s] == region)
            out.push_back(&slab[s]);
    }
}

void
AmoebaCache::overlapping(Addr region, const WordRange &r, BlockPtrs &out)
{
    const unsigned si = setOf(region);
    const WordMask m = r.mask();
    if (!(sets[si].coverage & m))
        return;
    for (const std::uint32_t s : live(si)) {
        if (slotRegion[s] == region && (slotCover[s] & m))
            out.push_back(&slab[s]);
    }
}

bool
AmoebaCache::hasRegion(Addr region)
{
    for (const std::uint32_t s : live(setOf(region))) {
        if (slotRegion[s] == region)
            return true;
    }
    return false;
}

bool
AmoebaCache::hasDirtyRegion(Addr region)
{
    for (const std::uint32_t s : live(setOf(region))) {
        if (slotRegion[s] == region && slab[s].dirty())
            return true;
    }
    return false;
}

bool
AmoebaCache::hasWritableRegion(Addr region)
{
    for (const std::uint32_t s : live(setOf(region))) {
        if (slotRegion[s] == region && slab[s].state != BlockState::S)
            return true;
    }
    return false;
}

AmoebaBlock
AmoebaCache::takeAt(unsigned si, std::size_t pos)
{
    Set &set = sets[si];
    std::uint32_t *ids = &order[std::size_t(si) * slotCap];
    const std::uint32_t s = ids[pos];
    AmoebaBlock out = std::move(slab[s]);
    std::copy(ids + pos + 1, ids + set.count, ids + pos);
    --set.count;
    freeSlots.push_back(s);
    set.bytesUsed -= blockCost(out.range);
    // Coverage has no per-bit refcount; rebuild it from the compact
    // masks of the survivors (removal is off the steady-state path).
    WordMask cov = 0;
    for (const std::uint32_t survivor : live(si))
        cov |= slotCover[survivor];
    set.coverage = cov;
    return out;
}

void
AmoebaCache::makeRoom(Addr region, const WordRange &r, Evicted &out)
{
    const unsigned si = setOf(region);
    const unsigned need = blockCost(r);

    while (sets[si].bytesUsed + need > setBudget) {
        const std::span<const std::uint32_t> ids = live(si);
        PROTO_ASSERT(!ids.empty(), "set over budget while empty");
        std::size_t victim = 0;
        for (std::size_t i = 1; i < ids.size(); ++i) {
            if (slotLru[ids[i]] < slotLru[ids[victim]])
                victim = i;
        }
        out.push_back(takeAt(si, victim));
    }
}

AmoebaBlock *
AmoebaCache::placeBlock(unsigned si, AmoebaBlock &&blk)
{
    Set &set = sets[si];
    const WordMask m = blk.range.mask();
    std::uint32_t s;
    if (!freeSlots.empty()) {
        s = freeSlots.back();
        freeSlots.pop_back();
        slotRegion[s] = blk.region;
        slotCover[s] = m;
        slotLru[s] = blk.lruStamp;
        slab[s] = std::move(blk);
    } else {
        s = static_cast<std::uint32_t>(slab.size());
        slotRegion.push_back(blk.region);
        slotCover.push_back(m);
        slotLru.push_back(blk.lruStamp);
        slab.push_back(std::move(blk));
    }
    order[std::size_t(si) * slotCap + set.count++] = s;
    set.coverage |= m;
    set.bytesUsed += blockCost(slab[s].range);
    return &slab[s];
}

AmoebaBlock *
AmoebaCache::insert(AmoebaBlock blk)
{
    const unsigned si = setOf(blk.region);
    const Set &set = sets[si];
    PROTO_ASSERT(set.bytesUsed + blockCost(blk.range) <= setBudget,
                 "insert without room (set %u)", si);
    PROTO_ASSERT(blk.words.size() == blk.range.words(),
                 "block data size mismatch");
    const WordMask m = blk.range.mask();
    if (set.coverage & m) {
        for (const std::uint32_t s : live(si)) {
            PROTO_ASSERT(slotRegion[s] != blk.region || !(slotCover[s] & m),
                         "overlapping insert into region %llx",
                         static_cast<unsigned long long>(blk.region));
        }
    }
    PROTO_ASSERT(set.count < slotCap, "set slot pool exhausted");
    blk.lruStamp = ++lruClock;
    return placeBlock(si, std::move(blk));
}

AmoebaBlock
AmoebaCache::removeExact(Addr region, const WordRange &r)
{
    const unsigned si = setOf(region);
    const WordMask m = r.mask();
    const std::span<const std::uint32_t> ids = live(si);
    for (std::size_t pos = 0; pos < ids.size(); ++pos) {
        const std::uint32_t s = ids[pos];
        // A contiguous mask determines its range, so cover equality
        // is exact-range equality.
        if (slotRegion[s] == region && slotCover[s] == m)
            return takeAt(si, pos);
    }
    panic("removeExact: block %llx %s not resident",
          static_cast<unsigned long long>(region), r.toString().c_str());
}

void
AmoebaCache::touchLru(AmoebaBlock *blk)
{
    blk->lruStamp = ++lruClock;
    slotLru[static_cast<std::size_t>(blk - slab.data())] = blk->lruStamp;
}

unsigned
AmoebaCache::setOccupancyBytes(unsigned set_index) const
{
    return sets[set_index].bytesUsed;
}

void
AmoebaCache::saveState(Serializer &s) const
{
    s.writeU64(lruClock);
    s.writeU32(numSets);
    for (unsigned si = 0; si < numSets; ++si) {
        s.writeU32(sets[si].count);
        // Walk in insertion order so restore reproduces the order
        // array (and hence every scan/victim tie-break) exactly.
        for (const std::uint32_t slot : live(si)) {
            const AmoebaBlock &b = slab[slot];
            s.writeU64(b.region);
            s.writeRaw(b.range);
            s.writeU8(static_cast<std::uint8_t>(b.state));
            s.writeU64(b.touched);
            s.writeU64(b.fetchPc);
            s.writeU8(b.missWord);
            s.writeU64(b.lruStamp);
            s.writeU32(static_cast<std::uint32_t>(b.words.size()));
            for (std::uint32_t w = 0; w < b.words.size(); ++w)
                s.writeU64(b.words[w]);
        }
    }
}

bool
AmoebaCache::restoreState(Deserializer &d)
{
    PROTO_ASSERT(blockCount() == 0,
                 "cache restore requires a fresh cache");
    const unsigned region_words = regionBytes / kWordBytes;
    lruClock = d.readU64();
    if (d.readU32() != numSets)
        return false;
    for (unsigned si = 0; si < numSets; ++si) {
        const std::uint32_t n = d.readU32();
        if (d.failed() || n > slotCap)
            return false;
        for (std::uint32_t i = 0; i < n; ++i) {
            AmoebaBlock b;
            b.region = d.readU64();
            d.readRaw(b.range);
            const std::uint8_t state = d.readU8();
            b.touched = d.readU64();
            b.fetchPc = d.readU64();
            b.missWord = d.readU8();
            b.lruStamp = d.readU64();
            const std::uint32_t nw = d.readU32();
            // Everything below must hold before the range becomes a
            // mask or the block takes a slot.
            if (d.failed() || b.range.empty() ||
                b.range.end >= region_words ||
                b.missWord >= region_words ||
                state > static_cast<std::uint8_t>(BlockState::M) ||
                nw != b.range.words() || setOf(b.region) != si ||
                sets[si].bytesUsed + blockCost(b.range) > setBudget)
                return false;
            b.state = static_cast<BlockState>(state);
            const WordMask m = b.range.mask();
            for (const std::uint32_t s : live(si)) {
                if (slotRegion[s] == b.region && (slotCover[s] & m))
                    return false;
            }
            b.words.assign(nw, 0);
            for (std::uint32_t w = 0; w < nw; ++w)
                b.words[w] = d.readU64();
            placeBlock(si, std::move(b));
        }
    }
    return !d.failed();
}

} // namespace protozoa
