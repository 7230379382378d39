/**
 * @file
 * Open-addressed map from 64-bit keys to pooled, pointer-stable values.
 *
 * The simulator keys one hot table this way: each L2 bank's coherence
 * directory (mem::DirTable, one entry per line). Sweep loops reset the
 * same machine thousands of times over a nearly identical key set, so
 * the map never frees a value:
 *
 *   - a linear-probing hash table of (key -> V*) slots, doubled before
 *     an insert would push occupancy past 0.7, and
 *   - a pool of V objects with stable addresses that reset() returns
 *     to its free list instead of destroying, so the next run
 *     re-acquires warm values (and whatever capacity they own)
 *     without touching the allocator.
 *
 * Value pointers are stable for the life of the map: a miss record
 * holds its DirEntry * across the events of its transaction while
 * later insertions rehash the slot array underneath it. There is no
 * erase: a key stays mapped until reset().
 *
 * The values live in a sim::RecordPool. V must be constructible from
 * the Args the map was built with, and provide reset(), which scrubs a
 * recycled value back to its freshly-constructed state. reset() of the
 * map is only legal once no record or frame references a value any
 * more (Machine::reset drops the events and frames first).
 */

#ifndef WISYNC_SIM_POOLED_MAP_HH
#define WISYNC_SIM_POOLED_MAP_HH

#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/logging.hh"
#include "sim/record.hh"
#include "sim/rng.hh"

namespace wisync::sim {

/** Pooled key -> V map (see file comment). */
template <typename V, typename... Args>
class PooledMap
{
  public:
    /** Allocation/recycling counters (monotonic over the map's life). */
    struct Stats
    {
        std::uint64_t allocated = 0; ///< values constructed (pool growth)
        std::uint64_t recycled = 0;  ///< values served from the free list
        std::uint64_t rehashes = 0;  ///< slot-array rebuilds
    };

    /** @p args are kept and passed to the constructor of every new V. */
    explicit PooledMap(Args... args)
        : args_(args...), slots_(kInitialSlots)
    {}

    PooledMap(const PooledMap &) = delete;
    PooledMap &operator=(const PooledMap &) = delete;
    PooledMap(PooledMap &&) = default;

    /**
     * The value for @p key, created (from the free list when possible)
     * if absent. The reference is stable until the map is destroyed.
     */
    V &
    operator[](std::uint64_t key)
    {
        const std::size_t i = probe(key);
        if (slots_[i].value != nullptr)
            return *slots_[i].value;
        return insert(key, i);
    }

    /** The value for @p key, or nullptr (never creates). */
    V *find(std::uint64_t key) { return slots_[probe(key)].value; }

    /**
     * Return every value to the free list and clear the map, keeping
     * the slot array and all value capacity for the next run.
     */
    void
    reset()
    {
        for (Slot &s : slots_) {
            if (s.value != nullptr)
                pool_.free(*s.value);
            s.value = nullptr;
        }
        size_ = 0;
    }

    std::size_t size() const { return size_; }
    std::size_t slotCount() const { return slots_.size(); }
    /** Values sitting in the free list right now. */
    std::size_t freeCount() const { return pool_.freeCount(); }
    const Stats &stats() const { return stats_; }

  private:
    /** Initial slot count; a power of two (masked probing). */
    static constexpr std::size_t kInitialSlots = 64;
    /** Occupancy ceiling, in tenths. */
    static constexpr std::size_t kMaxLoadTenths = 7;

    struct Slot
    {
        std::uint64_t key = 0;
        V *value = nullptr; ///< null = empty
    };

    /** Probe for @p key; @return its slot, or the insertion slot. */
    std::size_t
    probe(std::uint64_t key) const
    {
        // Keys are line addresses or (location << 16 | node): they
        // differ in a few middle bits, so identity hashing would chain
        // badly under linear probing.
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = mix64(key) & mask;
        while (slots_[i].value != nullptr && slots_[i].key != key)
            i = (i + 1) & mask;
        return i;
    }

    // Out of line: almost every lookup hits, so only the probe is
    // worth inlining into the callers.
    [[gnu::noinline]] V &
    insert(std::uint64_t key, std::size_t i)
    {
        if ((size_ + 1) * 10 > slots_.size() * kMaxLoadTenths) {
            rehash(slots_.size() * 2);
            i = probe(key);
        }
        const bool recycled = pool_.freeCount() != 0;
        V &v = std::apply(
            [this](auto &...a) -> V & { return pool_.alloc(a...); }, args_);
        if (recycled) {
            // Scrub on acquisition, not in reset(): a value the next
            // run never reuses costs nothing.
            v.reset();
            ++stats_.recycled;
        } else {
            ++stats_.allocated;
        }
        slots_[i] = Slot{key, &v};
        ++size_;
        return v;
    }

    /** Rebuild the slot array with @p new_count slots. */
    void
    rehash(std::size_t new_count)
    {
        WISYNC_ASSERT((new_count & (new_count - 1)) == 0,
                      "PooledMap slot count must stay a power of two");
        std::vector<Slot> old;
        old.swap(slots_);
        slots_.assign(new_count, Slot{});
        ++stats_.rehashes;
        const std::size_t mask = new_count - 1;
        for (const Slot &s : old) {
            if (s.value == nullptr)
                continue;
            std::size_t i = mix64(s.key) & mask;
            while (slots_[i].value != nullptr)
                i = (i + 1) & mask;
            slots_[i] = s;
        }
    }

    std::tuple<Args...> args_;
    std::vector<Slot> slots_;
    /** Every value ever built: stable storage behind the slot array. */
    RecordPool<V> pool_;
    std::size_t size_ = 0;
    Stats stats_;
};

} // namespace wisync::sim

#endif // WISYNC_SIM_POOLED_MAP_HH
