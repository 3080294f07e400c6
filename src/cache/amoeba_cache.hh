/**
 * @file
 * Variable-granularity L1 data storage (Amoeba-Cache, MICRO'12).
 *
 * Each set has a byte budget instead of a fixed way count. Blocks are
 * <Region, Start, End> tuples with collocated tags (one word of tag
 * overhead per block, Fig. 2 of the Protozoa paper). Blocks of the same
 * region never overlap. All blocks of a region live in the same set, so
 * the multi-block coherence snoops (CHECK / GATHER, Fig. 3) scan one
 * set only.
 *
 * Storage layout: block payloads are inline (no per-block heap words).
 * Slots come from one per-cache slab whose worst-case capacity (every
 * set packed with minimum-size blocks) is reserved, not touched, at
 * construction: slots are constructed on first use and packed in
 * first-use order, and freed slots go on a single LIFO free list. Each
 * set keeps an order array of slot ids that preserves insertion order
 * exactly like the former std::list, while block pointers stay stable
 * across unrelated inserts and removals. The multi-block snoop helpers
 * fill caller-provided scratch buffers, so the steady-state
 * lookup/evict/insert loop allocates nothing.
 *
 * The fixed-granularity baseline (MESI) is the degenerate case where
 * every block spans its whole region: with the default 288-byte sets
 * and 8-byte tags that is exactly four 64-byte ways.
 */

#ifndef PROTOZOA_CACHE_AMOEBA_CACHE_HH
#define PROTOZOA_CACHE_AMOEBA_CACHE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hh"
#include "common/serialize.hh"
#include "common/small_vec.hh"
#include "common/types.hh"
#include "common/word_range.hh"

namespace protozoa {

/** L1 block coherence state (Table 2, L1 stable states). */
enum class BlockState : std::uint8_t
{
    S,   ///< shared, clean; other L1s may hold overlapping sub-blocks
    E,   ///< exclusive, clean
    M,   ///< dirty; no other L1 holds an overlapping sub-block
};

const char *blockStateName(BlockState s);

/** One variable-granularity cache block; payload words live inline. */
struct AmoebaBlock
{
    Addr region = 0;
    WordRange range;
    BlockState state = BlockState::S;
    /** Words of the region the core actually referenced. */
    WordMask touched = 0;
    /** PC of the miss that fetched this block (predictor training). */
    Pc fetchPc = 0;
    /** Word index of the original miss within the region. */
    std::uint8_t missWord = 0;
    /** LRU timestamp. */
    std::uint64_t lruStamp = 0;
    /** Data payload, indexed by (word - range.start). */
    SmallVec<std::uint64_t, kMaxRegionWords> words;

    bool dirty() const { return state == BlockState::M; }

    std::uint64_t &
    wordAt(unsigned w)
    {
        return words[w - range.start];
    }

    std::uint64_t
    wordAt(unsigned w) const
    {
        return words[w - range.start];
    }

    /** Words of this block the core touched / did not touch. */
    unsigned touchedWords() const;
    unsigned untouchedWords() const { return range.words() - touchedWords(); }
};

class AmoebaCache
{
  public:
    explicit AmoebaCache(const SystemConfig &cfg);

    /** Per-block tag/metadata overhead charged against the set budget. */
    static constexpr unsigned kTagBytes = 8;

    /**
     * Inline capacity of the snoop scratch buffers: the default
     * 288-byte set holds at most 18 minimum-size blocks. Larger
     * configured budgets spill the scratch vector to the heap, which
     * is correct but no longer allocation-free.
     */
    static constexpr unsigned kScratchBlocks = 20;

    /** Caller-provided scratch for multi-block snoop results. */
    using BlockPtrs = SmallVec<AmoebaBlock *, kScratchBlocks>;
    /** Caller-provided scratch for eviction victims. */
    using Evicted = SmallVec<AmoebaBlock, kScratchBlocks>;

    /** Set index for a region. */
    unsigned setOf(Addr region) const;

    /** The single block containing @p word of @p region, or nullptr. */
    AmoebaBlock *findCovering(Addr region, unsigned word);

    /**
     * Append all blocks of @p region (non-overlapping by invariant) to
     * @p out. Pointers stay valid until one of them is removed.
     */
    void blocksOfRegion(Addr region, BlockPtrs &out);

    /** Append the blocks of @p region overlapping @p r to @p out. */
    void overlapping(Addr region, const WordRange &r, BlockPtrs &out);

    bool hasRegion(Addr region);
    /** True when any block of @p region is dirty. */
    bool hasDirtyRegion(Addr region);
    /**
     * True when any block of @p region still confers write permission
     * (M, or E which can silently upgrade to M).
     */
    bool hasWritableRegion(Addr region);

    /**
     * Evict LRU blocks from the target set until a block of @p r words
     * (plus tag) fits, appending the victims to @p out oldest first.
     */
    void makeRoom(Addr region, const WordRange &r, Evicted &out);

    /**
     * Insert a block. Space must already exist (call makeRoom) and the
     * block must not overlap any same-region resident block.
     * @return pointer to the resident copy (stable until removal).
     */
    AmoebaBlock *insert(AmoebaBlock blk);

    /** Extract the exact block (@p region, @p r) from the cache. */
    AmoebaBlock removeExact(Addr region, const WordRange &r);

    /** Refresh the LRU stamp of @p blk. */
    void touchLru(AmoebaBlock *blk);

    /** Apply @p fn to every resident block (stats finalization). */
    template <typename F>
    void
    forEach(F &&fn)
    {
        for (unsigned si = 0; si < numSets; ++si)
            for (const std::uint32_t s : live(si))
                fn(slab[s]);
    }

    std::size_t blockCount() const { return slab.size() - freeSlots.size(); }
    unsigned setOccupancyBytes(unsigned set_index) const;
    unsigned bytesPerSet() const { return setBudget; }
    /** Slots constructed so far: the slab's first-use high-water mark. */
    std::size_t slotsInUse() const { return slab.size(); }

    /**
     * Serialize every resident block (exact LRU stamps and per-set
     * insertion order included) plus the LRU clock.
     */
    void saveState(Serializer &s) const;
    /**
     * Rebuild from a snapshot. Must be called on a freshly-constructed
     * cache of the same geometry; reproduces insertion order, LRU
     * stamps and all derived metadata exactly.
     */
    bool restoreState(Deserializer &d);

  private:
    /**
     * Per-set bookkeeping. The set's blocks are the first `count` slot
     * ids of its stride in `order`, in insertion order; removing one
     * shifts only the ids behind it.
     *
     * The scan-heavy lookups never touch the wide AmoebaBlock slots
     * until a candidate matches: slotRegion/slotCover/slotLru mirror
     * the tag, range mask, and LRU stamp of each slot in compact
     * arrays, and `coverage` holds the OR of every live block's word
     * mask so a snoop for words the set does not hold anywhere is
     * rejected with a single AND. Entries of freed slots are stale but
     * unreachable (scans walk `order` only).
     */
    struct Set
    {
        unsigned count = 0;
        unsigned bytesUsed = 0;
        /** OR of live blocks' range masks, across all regions. */
        WordMask coverage = 0;
    };

    static unsigned blockCost(const WordRange &r);

    /** Slot ids of set @p si in insertion order. */
    std::span<const std::uint32_t>
    live(unsigned si) const
    {
        return {&order[std::size_t(si) * slotCap], sets[si].count};
    }

    /** Remove order position @p pos of set @p si; returns the block. */
    AmoebaBlock takeAt(unsigned si, std::size_t pos);

    /** Store @p blk in a slot of set @p si, keeping blk.lruStamp. */
    AmoebaBlock *placeBlock(unsigned si, AmoebaBlock &&blk);

    unsigned numSets;
    unsigned setBudget;
    unsigned regionBytes;
    unsigned regionShift;
    /** Most blocks one set can hold (all minimum-size). */
    unsigned slotCap;
    std::uint64_t lruClock = 0;
    std::vector<Set> sets;
    /** Per-set insertion-order slot ids, at stride slotCap. */
    std::vector<std::uint32_t> order;
    /** Block slots, capacity reserved for every set full. */
    std::vector<AmoebaBlock> slab;
    std::vector<Addr> slotRegion;
    std::vector<WordMask> slotCover;
    std::vector<std::uint64_t> slotLru;
    /** Freed slot ids, reused last-freed first. */
    std::vector<std::uint32_t> freeSlots;
};

} // namespace protozoa

#endif // PROTOZOA_CACHE_AMOEBA_CACHE_HH
