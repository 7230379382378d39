/**
 * @file
 * Abstract synchronization primitives used by every workload.
 *
 * Each of the paper's four configurations (Table 2) provides concrete
 * locks and barriers behind these interfaces, so a workload written
 * once runs unchanged on Baseline, Baseline+, WiSyncNoT and WiSync.
 */

#ifndef WISYNC_SYNC_PRIMITIVES_HH
#define WISYNC_SYNC_PRIMITIVES_HH

#include <cstdint>
#include <vector>

#include "core/machine.hh"
#include "coro/task.hh"

namespace wisync::sync {

/**
 * Per-thread state indexed by ThreadId. Machine::spawnThread numbers
 * threads densely from 0, so a vector does a hash map's job: it holds
 * one entry per core from construction (every slot @p init) and grows
 * only for a higher id.
 */
template <typename T>
class PerThread
{
  public:
    explicit PerThread(const core::Machine &m, T init = T{})
        : init_(init), slots_(m.config().numCores, init)
    {}

    T &
    operator[](sim::ThreadId tid)
    {
        if (tid >= slots_.size())
            slots_.resize(tid + 1, init_);
        return slots_[tid];
    }

  private:
    T init_;
    std::vector<T> slots_;
};

/** Per-thread sense-reversal bits, 0 before a thread's first use. */
class Senses
{
  public:
    explicit Senses(const core::Machine &m) : senses_(m) {}

    /** Reverse @p tid's sense and return it: 1, then 0, 1, ... */
    std::uint64_t
    flip(sim::ThreadId tid)
    {
        std::uint64_t &sense = senses_[tid];
        sense ^= 1;
        return sense;
    }

  private:
    PerThread<std::uint64_t> senses_;
};

/** Mutual-exclusion lock. */
class Lock
{
  public:
    virtual ~Lock() = default;
    virtual coro::Task<void> acquire(core::ThreadCtx &ctx) = 0;
    virtual coro::Task<void> release(core::ThreadCtx &ctx) = 0;
};

/** AND-barrier: wait() returns when all participants arrived. */
class Barrier
{
  public:
    virtual ~Barrier() = default;
    virtual coro::Task<void> wait(core::ThreadCtx &ctx) = 0;
};

/** OR-barrier (eureka, §4.3.2): released by the first trigger. */
class OrBarrier
{
  public:
    virtual ~OrBarrier() = default;
    /** Announce the condition (any participant). */
    virtual coro::Task<void> trigger(core::ThreadCtx &ctx) = 0;
    /** Non-blocking check for the condition. */
    virtual coro::Task<bool> poll(core::ThreadCtx &ctx) = 0;
    /** Block until the condition is announced. */
    virtual coro::Task<void> await(core::ThreadCtx &ctx) = 0;
    /** Re-arm for the next use (sense reversal; call from one thread
     *  after all participants have observed the trigger). */
    virtual void reset() = 0;
};

/** Shared reduction cell (§4.3.5). */
class Reducer
{
  public:
    virtual ~Reducer() = default;
    /** Atomically add @p delta. */
    virtual coro::Task<void> add(core::ThreadCtx &ctx,
                                 std::uint64_t delta) = 0;
    /** Read the current total (not synchronized with adders). */
    virtual coro::Task<std::uint64_t> read(core::ThreadCtx &ctx) = 0;
};

} // namespace wisync::sync

#endif // WISYNC_SYNC_PRIMITIVES_HH
