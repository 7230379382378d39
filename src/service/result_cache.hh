/**
 * @file
 * Exact, bounded result cache for the sweep service.
 *
 * Simulations are bit-deterministic functions of their RequestPoint
 * (MachineConfig x WorkloadSpec) — the repo-wide determinism contract
 * every PR has defended — so caching needs no invalidation story and
 * hits are *exact*: the stored KernelResult is bitIdentical to what
 * re-simulating the point would produce.
 *
 * Keys are the point's canonical 64-bit fingerprint. A hit
 * additionally verifies full RequestPoint equality (operator==), so
 * an astronomically unlikely 64-bit collision degrades to a counted
 * miss, never a wrong result.
 *
 * Capacity is bounded with LRU eviction (lookup refreshes recency,
 * insert evicts the coldest entry) and capacity 0 disables storage
 * entirely. hit/miss/eviction/insertion/collision counters feed the
 * service response and the bench gates.
 *
 * Not internally synchronized: SweepService serializes access (its
 * insert-and-resolve path runs entirely under ParallelSweep's emit
 * mutex, and the warm-hit pass runs before workers start; see
 * sweep_service.cc).
 */

#ifndef WISYNC_SERVICE_RESULT_CACHE_HH
#define WISYNC_SERVICE_RESULT_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>

#include "service/config_codec.hh"
#include "workloads/kernel_result.hh"

namespace wisync::service {

/** See the file comment. */
class ResultCache
{
  public:
    /** Monotonic counters over the cache's whole lifetime. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t insertions = 0;
        /** Fingerprint matched but the point didn't (treated as a
         *  miss; a nonzero value is a newsworthy event). */
        std::uint64_t collisions = 0;
    };

    /**
     * Key derivation override (tests only): maps a point to its
     * 64-bit cache key. The default is RequestPoint::fingerprint();
     * a degenerate hasher (e.g. a constant) forces the collision
     * path — same key, different point — which is unreachable through
     * real fingerprints in any practical test.
     */
    using Hasher = std::function<std::uint64_t(const RequestPoint &)>;

    explicit ResultCache(std::size_t capacity = 256, Hasher hasher = {})
        : capacity_(capacity), hasher_(std::move(hasher))
    {}

    /**
     * The cached result for @p point, or nullptr. A hit refreshes
     * the entry's recency; the pointer stays valid until the next
     * insert() or clear().
     */
    const workloads::KernelResult *lookup(const RequestPoint &point);

    /**
     * Store @p result for @p point, evicting the LRU entry when the
     * bound is exceeded. Re-inserting an existing key refreshes its
     * value and recency without growing the cache. No-op (not even a
     * counter) at capacity 0.
     */
    void insert(const RequestPoint &point,
                const workloads::KernelResult &result);

    /** insert() for a caller that already holds
     *  @p fingerprint == point.fingerprint() (the cache store has
     *  checked it against the record's). */
    void insert(const RequestPoint &point,
                const workloads::KernelResult &result,
                std::uint64_t fingerprint);

    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }
    const Stats &stats() const { return stats_; }

    /** Drop every entry (counters keep accumulating). */
    void clear();

    /**
     * Visit every entry (point, its fingerprint, result),
     * least-recently-used first. Written in that order to a CacheStore
     * file, a sequential re-insert replay reconstructs both contents
     * and recency exactly. The callback must not mutate the cache.
     */
    void visitLruToMru(
        const std::function<void(const RequestPoint &, std::uint64_t,
                                 const workloads::KernelResult &)> &fn)
        const;

    /**
     * Streaming persistence hook: called after every insert() that
     * stored a new point (fresh entries and collision overwrites; a
     * same-point refresh is skipped — deterministic results make it a
     * value no-op). Runs under whatever serialization insert() itself
     * runs under (SweepService: the sweep emit mutex). The daemon
     * appends each record to the cache file here, so a kill at any
     * instant loses at most the record being written.
     */
    void setSpillHook(
        std::function<void(const RequestPoint &,
                           const workloads::KernelResult &)>
            hook)
    {
        spillHook_ = std::move(hook);
    }

  private:
    std::uint64_t
    key(const RequestPoint &point) const
    {
        return hasher_ ? hasher_(point) : point.fingerprint();
    }

    struct Entry
    {
        std::uint64_t key;
        /** point.fingerprint() (the key unless a hasher overrides). */
        std::uint64_t fingerprint;
        RequestPoint point;
        workloads::KernelResult result;
    };

    /** Most-recently-used first. */
    std::list<Entry> entries_;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
    std::size_t capacity_;
    Hasher hasher_;
    std::function<void(const RequestPoint &,
                       const workloads::KernelResult &)>
        spillHook_;
    Stats stats_;
};

} // namespace wisync::service

#endif // WISYNC_SERVICE_RESULT_CACHE_HH
