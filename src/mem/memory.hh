/**
 * @file
 * Functional backing store for the regular (cacheable) address space.
 *
 * The simulator splits function from timing: values live here with
 * word granularity, while caches/directories model only timing and
 * coherence state. A value is read/written at the instant the timing
 * model commits the corresponding access, so observed interleavings
 * are always consistent with the modelled coherence order.
 */

#ifndef WISYNC_MEM_MEMORY_HH
#define WISYNC_MEM_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace wisync::mem {

/**
 * Sparse 64-bit-word functional memory (zero-initialised).
 *
 * An open-addressing table keyed by sim::mix64 of the word address,
 * probed linearly and kept at most half full, plus the list of its
 * occupied slots. A commit costs a mix and usually one slot; clear()
 * empties only the occupied slots and keeps the capacity, so a reset
 * machine's rerun allocates nothing here.
 */
class Memory
{
  public:
    /** Read the aligned 64-bit word at @p addr. */
    std::uint64_t
    read64(sim::Addr addr) const
    {
        WISYNC_ASSERT((addr & 7) == 0, "unaligned 64-bit read");
        const Slot &s = slots_[probe(addr)];
        return s.addr == addr ? s.value : 0;
    }

    /** Write the aligned 64-bit word at @p addr. */
    void write64(sim::Addr addr, std::uint64_t value);

    /** Number of words ever written (for tests). */
    std::size_t footprintWords() const { return occupied_.size(); }

    /** Slots of the table: grows with the footprint, kept by clear(). */
    std::size_t capacity() const { return slots_.size(); }

    /** Forget every written word (back to all-zero memory). */
    void clear();

    /**
     * Order-independent digest of the full (addr, value) contents.
     * Two memories fingerprint equal iff they hold the same words —
     * used by the reset-equivalence tests to compare final state
     * without exposing the table.
     */
    std::uint64_t fingerprint() const;

  private:
    /** A word; addr == kEmpty marks a free slot (word addresses are
     *  8-aligned, so no word has it). */
    struct Slot
    {
        sim::Addr addr;
        std::uint64_t value;
    };
    static constexpr sim::Addr kEmpty = 1;

    /** The slot holding @p addr, or the free slot ending its probe. */
    std::size_t
    probe(sim::Addr addr) const
    {
        std::size_t i = sim::mix64(addr) & mask_;
        while (slots_[i].addr != addr && slots_[i].addr != kEmpty)
            i = (i + 1) & mask_;
        return i;
    }

    /** Double the table (to 16 slots when empty) and rehash. */
    void grow();

    /** Starts as one free slot, so probe() needs no empty check. */
    std::vector<Slot> slots_{Slot{kEmpty, 0}};
    std::size_t mask_ = 0;
    /** Indices of the occupied slots, in first-write order. */
    std::vector<std::uint32_t> occupied_;
};

} // namespace wisync::mem

#endif // WISYNC_MEM_MEMORY_HH
