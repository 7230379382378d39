/**
 * @file
 * Size-classed pool for coroutine frames.
 *
 * Every Task<T> (and detached-root wrapper) frame allocation used to
 * hit malloc; in task-heavy kernels (deep transaction chains, BM retry
 * loops) that was the dominant cost left after the allocation-free
 * event kernel. The pool serves frames from per-size-class free lists
 * carved out of chunked arenas, so steady-state spawn/await/complete
 * cycles never touch the system allocator:
 *
 *   - Sizes are rounded up to 64-byte classes up to 2 KB. Frames for
 *     the model's coroutines cluster in a handful of classes (a
 *     transaction frame is a few hundred bytes), so free lists reach
 *     steady state within the first few simulated events.
 *   - A 16-byte header in front of each frame records its class, which
 *     makes deallocation independent of the (unsized) operator delete
 *     the coroutine machinery calls.
 *   - Frames above the 2 KB ceiling fall back to ::operator new; the
 *     header marks them so delete routes correctly.
 *   - Arena chunks are recycled within the (thread-local) pool and
 *     only returned to the OS at thread exit: machine churn in sweep
 *     loops re-uses the same pages instead of re-faulting them.
 *
 * The pool is thread-local (the simulator is single-threaded by
 * design; concurrent engines in test harnesses stay independent) and
 * deliberately outlives every Engine/Machine, so frames destroyed
 * during engine teardown always have a live pool to return to.
 */

#ifndef WISYNC_CORO_FRAME_POOL_HH
#define WISYNC_CORO_FRAME_POOL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wisync::coro {

/** Thread-local size-classed arena for coroutine frames. */
class FramePool
{
  public:
    /** Frame alignment (== default operator new alignment). */
    static constexpr std::size_t kAlign =
        __STDCPP_DEFAULT_NEW_ALIGNMENT__;
    /** Size-class granularity, bytes. */
    static constexpr std::size_t kGranule = 64;
    /** Largest pooled allocation (incl. header); larger -> malloc. */
    static constexpr std::size_t kMaxPooled = 2048;
    static constexpr std::size_t kNumClasses = kMaxPooled / kGranule;
    /** Arena chunk size, bytes. */
    static constexpr std::size_t kChunkBytes = 64 * 1024;

    /** Cumulative counters (monotonic; for tests and benchmarks). */
    struct Stats
    {
        std::uint64_t pooledAllocs = 0;   ///< served from the pool
        std::uint64_t pooledFrees = 0;    ///< returned to a free list
        std::uint64_t freelistReuses = 0; ///< pooled allocs that reused
                                          ///< a previously freed frame
        std::uint64_t fallbackAllocs = 0; ///< oversized, via malloc
        std::uint64_t fallbackFrees = 0;  ///< oversized frees
        std::uint64_t chunks = 0;         ///< arena chunks allocated
    };

    FramePool() = default;
    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;
    ~FramePool();

    /** Allocate @p bytes with operator-new alignment. */
    void *allocate(std::size_t bytes);

    /** Return a pointer obtained from allocate(). */
    void deallocate(void *p) noexcept;

    const Stats &stats() const { return stats_; }

    /** Frames currently allocated and not yet freed. */
    std::uint64_t
    liveFrames() const
    {
        return (stats_.pooledAllocs + stats_.fallbackAllocs) -
               (stats_.pooledFrees + stats_.fallbackFrees);
    }

  private:
    struct FreeNode
    {
        FreeNode *next;
    };

    /** Class index for a total (header-included) size. */
    static std::size_t
    classOf(std::size_t total)
    {
        return (total + kGranule - 1) / kGranule - 1;
    }

    FreeNode *free_[kNumClasses] = {};
    std::vector<std::byte *> chunks_;
    std::byte *bump_ = nullptr;
    std::size_t bumpLeft_ = 0;
    Stats stats_;
};

/** The calling thread's frame pool. */
FramePool &framePool();

/** Convenience hooks for promise operator new/delete. */
void *framePoolAllocate(std::size_t bytes);
void framePoolDeallocate(void *p) noexcept;

} // namespace wisync::coro

#endif // WISYNC_CORO_FRAME_POOL_HH
