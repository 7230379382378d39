/**
 * @file
 * The batch sweep front-end: requests in, deduped + cached + sharded
 * simulation out.
 *
 * A long-lived service answering streams of sweep requests ("millions
 * of users") leans entirely on determinism: a point's result is a
 * pure function of its RequestPoint, so
 *
 *  - identical points inside one batch run ONCE (in-batch dedupe:
 *    later occurrences are satisfied from the first one's result the
 *    moment it lands in the cache);
 *  - points seen in any earlier batch are answered from the
 *    ResultCache without simulating (exact hits — bitIdentical to a
 *    re-run);
 *  - the remaining unique misses batch through ParallelSweep's
 *    work-stealing workers, with per-point failures captured as
 *    typed outcomes (runCaptured) instead of killing the batch;
 *  - results stream to the caller's observer as points complete and
 *    the returned vector is in request order regardless of
 *    completion, thread count or cache state.
 *
 * Correctness bar (locked by tests and the bench_service gate): for
 * any request, the outcome vector is byte-identical — bitIdentical
 * per point, same order — to a serial, cache-disabled run of every
 * point, at any thread count, any cache warmth, and any ShardPlanner
 * split.
 */

#ifndef WISYNC_SERVICE_SWEEP_SERVICE_HH
#define WISYNC_SERVICE_SWEEP_SERVICE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "service/config_codec.hh"
#include "service/result_cache.hh"
#include "workloads/kernel_result.hh"

namespace wisync::service {

/** One request point's answer. */
struct ServiceOutcome
{
    workloads::KernelResult result;
    /** False when the point's body threw; error holds what(). */
    bool ok = false;
    std::string error;
    /** Served from the result cache (including in-batch dedupe: a
     *  duplicate is answered from the entry its first occurrence
     *  inserted moments earlier). */
    bool cacheHit = false;
    /** The point's canonical fingerprint (the cache/shard key). */
    std::uint64_t fingerprint = 0;
};

/** Per-batch accounting, surfaced in the sweepd JSON response. */
struct BatchStats
{
    std::size_t points = 0;
    /** Unique misses actually simulated. */
    std::size_t simulated = 0;
    /** Answered from the cache — warm entries plus in-batch
     *  duplicates of a point simulated in this batch. */
    std::size_t cacheHits = 0;
    /** Points that failed with a captured error. */
    std::size_t errors = 0;
};

/** See the file comment. */
class SweepService
{
  public:
    /**
     * @p cache_capacity bounds the result cache (entries, LRU);
     * 0 disables caching — every batch simulates all unique points
     * and duplicates are copied from the representative's outcome
     * instead of read back from the cache. @p hasher overrides the
     * cache's key derivation (tests only — forces the collision
     * path).
     */
    explicit SweepService(std::size_t cache_capacity = 256,
                          ResultCache::Hasher hasher = {})
        : cache_(cache_capacity, std::move(hasher))
    {}

    /**
     * Streaming observer: called once per request point, with the
     * request index and the final outcome. Cache hits fire on the
     * calling thread before simulation starts; simulated points (and
     * their in-batch duplicates) fire from the completing worker's
     * thread, serialized by the sweep's emit mutex. Must not touch
     * the service or the batch call re-entrantly.
     */
    using Observer =
        std::function<void(std::size_t index, const ServiceOutcome &)>;

    /**
     * Answer @p request on @p threads workers; outcomes in request
     * order. Thread count never changes a single output bit (the
     * ParallelSweep contract), nor does cache warmth (determinism
     * makes hits exact).
     */
    std::vector<ServiceOutcome> runBatch(const SweepRequest &request,
                                         unsigned threads,
                                         const Observer &observer = {});

    ResultCache &cache() { return cache_; }
    const ResultCache &cache() const { return cache_; }

    /** Accounting for the most recent runBatch call. */
    const BatchStats &lastBatch() const { return lastBatch_; }

    /**
     * Fault-injection seam (FaultPlan / tests): called on the worker
     * thread at the start of every *simulated* point's body — cache
     * hits and in-batch duplicates never reach it — with the point's
     * request index. A probe that throws aborts exactly that point
     * through runCaptured's captured-error path, like any workload
     * failure. Empty by default (and the default costs nothing on the
     * hot path beyond one bool test per simulated point).
     */
    using BodyProbe = std::function<void(std::size_t request_index)>;
    void setBodyProbe(BodyProbe probe) { bodyProbe_ = std::move(probe); }

  private:
    ResultCache cache_;
    BatchStats lastBatch_;
    BodyProbe bodyProbe_;
};

} // namespace wisync::service

#endif // WISYNC_SERVICE_SWEEP_SERVICE_HH
