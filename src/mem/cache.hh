/**
 * @file
 * Set-associative cache tag array with MOESI line states.
 *
 * Holds tags and coherence state only (the functional value store is
 * mem::Memory). Used for both private L1s and shared L2 banks.
 */

#ifndef WISYNC_MEM_CACHE_HH
#define WISYNC_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>

#include "sim/divisor.hh"
#include "sim/types.hh"

namespace wisync::mem {

/** MOESI coherence states. */
enum class CohState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Owned,
    Modified,
};

/** True if the state permits reading without a transaction. */
inline bool
canRead(CohState s)
{
    return s != CohState::Invalid;
}

/** True if the state permits writing without a transaction. */
inline bool
canWrite(CohState s)
{
    return s == CohState::Exclusive || s == CohState::Modified;
}

/** True if this copy is responsible for supplying dirty data. */
inline bool
isOwner(CohState s)
{
    return s == CohState::Modified || s == CohState::Owned ||
           s == CohState::Exclusive;
}

/**
 * One cache line's bookkeeping.
 *
 * Deliberately no field initializers: the tag arrays are megabytes of
 * these and are never constructed element by element. CacheArray backs
 * them with zero-fill-on-demand pages, and all-zero is the correct
 * initial state (Invalid == 0, epoch 0), so a set nobody touches costs
 * no resident memory at all.
 */
struct CacheLine
{
    sim::Addr lineAddr;
    std::uint64_t lruStamp;
    /**
     * Epoch stamp: lines from older epochs read as invalid. 32 bits
     * shares the tail padding with `state`, keeping the line at 24
     * bytes; a false hit would need a line untouched across exactly
     * 2^32 resets, which no real sweep approaches.
     */
    std::uint32_t gen;
    CohState state;
    bool valid() const { return state != CohState::Invalid; }
};
static_assert(sizeof(CacheLine) == 24, "tag arrays are size-critical");
static_assert(static_cast<int>(CohState::Invalid) == 0,
              "zero-init must mean Invalid");

/**
 * Tag array: size/assoc/line-size in bytes, true-LRU replacement.
 *
 * An L2 bank is told the home interleave it serves: it only ever holds
 * lines whose line number is congruent to its residue modulo the
 * interleave (install() checks this). Those lines reach just
 * numSets / gcd(interleave, numSets) of the sets, and only those are
 * stored: set s lives at index s / gcd. Hits, misses, victims and LRU
 * order are exactly those of the full-size array; a Table 1 bank of a
 * 64-core chip keeps its 16 reachable sets in one page instead of 16
 * sets scattered over 48 pages.
 *
 * Storage is an anonymous mapping: pages fault in (zeroed) on first
 * touch, so a machine's host footprint follows the sets its run
 * touches, not its core count. A destroyed array hands its mapping to
 * a bounded process-wide free list; the next array of the same mapped
 * size takes it over without clearing it, starting at the previous
 * owner's epoch + 1 so every stale line reads invalid (see reset()).
 */
class CacheArray
{
  public:
    /** The array holds only lines whose line number is congruent to
     *  @p residue modulo @p interleave: 1 and 0 for a private cache;
     *  for an L2 bank, the modulus and bank index of the home
     *  interleave (MemSystem::homeOf). */
    CacheArray(std::uint32_t size_bytes, std::uint32_t assoc,
               std::uint32_t line_bytes, std::uint32_t interleave = 1,
               std::uint32_t residue = 0);
    ~CacheArray();

    CacheArray(CacheArray &&other) noexcept;
    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;
    CacheArray &operator=(CacheArray &&) = delete;

    /** Process-wide storage counters: arrays built on a new mapping,
     *  and arrays built on one taken from the free list. */
    struct PoolStats
    {
        std::uint64_t mapped = 0;
        std::uint64_t recycled = 0;
    };
    static PoolStats poolStats();

    /** Aligned line address containing @p addr. */
    sim::Addr lineOf(sim::Addr addr) const
    {
        return addr & ~static_cast<sim::Addr>(lineBytes_ - 1);
    }

    /**
     * Find a valid line (touches LRU).
     * @return The line, or nullptr on miss.
     */
    CacheLine *lookup(sim::Addr line_addr);

    /** Find without touching LRU (for probes). */
    CacheLine *peek(sim::Addr line_addr);

    /**
     * Choose where @p line_addr would be installed: an invalid way if
     * available, else the LRU way (whose previous contents the caller
     * must evict). Does not modify the line.
     */
    CacheLine *victimFor(sim::Addr line_addr);

    /** Install @p line_addr into @p slot with @p state (touches LRU). */
    void install(CacheLine *slot, sim::Addr line_addr, CohState state);

    /** Sets of the full geometry (size / (assoc * line)). */
    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }
    std::uint32_t lineBytes() const { return lineBytes_; }
    /** Bytes of address space the stored sets occupy (whole pages). */
    std::size_t mappedBytes() const { return mapBytes_; }

    /**
     * Invalidate every line and rewind the LRU clock, in O(1): the
     * array's epoch is bumped and stale-epoch lines read as invalid
     * (they are re-stamped on install). A private 32 KB L1 alone holds
     * 12 KiB of tag state; sweeping every array per Machine::reset
     * would cost more than the reset saves.
     */
    void reset();

  private:
    /** Stored index of the set @p line_addr maps to. With line number
     *  stride * q + residue, the full set is stride * (q % reach) +
     *  residue, so its stored index is q % reach. */
    std::uint32_t
    setOf(sim::Addr line_addr) const
    {
        return static_cast<std::uint32_t>(
            reach_.mod(stride_.div(line_addr >> lineShift_)));
    }

    std::uint32_t assoc_;
    std::uint32_t lineBytes_;
    std::uint32_t lineShift_;
    std::uint32_t numSets_;
    /** gcd(interleave, numSets_): every stored line number is
     *  congruent to residue_ modulo it. */
    sim::Divisor stride_;
    /** numSets_ / stride: the sets stored. */
    sim::Divisor reach_;
    std::uint32_t residue_;
    std::uint64_t clock_ = 0;
    std::uint32_t gen_ = 0; // current epoch (see reset())
    CacheLine *lines_ = nullptr; // reach x assoc_
    std::size_t mapBytes_ = 0;   // page-rounded size of the mapping
};

} // namespace wisync::mem

#endif // WISYNC_MEM_CACHE_HH
