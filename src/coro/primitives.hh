/**
 * @file
 * Timing and synchronization primitives for model coroutines.
 *
 * These are the only ways a Task can consume simulated time or block:
 *   - delay(engine, n)        : advance n cycles
 *   - SimMutex                : FIFO mutual exclusion (per-line MSHRs,
 *                               channel senders, bank ports, ...)
 *   - Resource                : counting semaphore (link/bank capacity)
 *   - CondVar                 : broadcast wakeup of callback waiters
 *   - Watch / WatchList       : in-frame "location changed" records
 *                               (spin waits, pipelined fills)
 *   - spawnDetached           : launch a root task onto the engine
 *   - whenAll                 : fork-join over parallel legs
 *
 * All wakeups go through the engine queue (never inline resumption) so
 * event ordering stays deterministic and the host stack stays shallow.
 */

#ifndef WISYNC_CORO_PRIMITIVES_HH
#define WISYNC_CORO_PRIMITIVES_HH

#include <concepts>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "coro/task.hh"
#include "sim/engine.hh"
#include "sim/inline_vec.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace wisync::coro {

/** Awaitable that resumes after a fixed number of cycles. */
class DelayAwaiter
{
  public:
    DelayAwaiter(sim::Engine &engine, sim::Cycle cycles)
        : engine_(engine), cycles_(cycles)
    {}

    bool await_ready() const noexcept { return cycles_ == 0; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        engine_.resumeHandle(cycles_, h);
    }

    void await_resume() const noexcept {}

  private:
    sim::Engine &engine_;
    sim::Cycle cycles_;
};

/** co_await delay(engine, n): advance simulated time by n cycles. */
inline DelayAwaiter
delay(sim::Engine &engine, sim::Cycle cycles)
{
    return DelayAwaiter(engine, cycles);
}

/**
 * Awaitable that reschedules the coroutine at the current cycle, behind
 * every event already pending for it. The building block for "let the
 * rest of this cycle settle first" patterns (arbitration windows,
 * same-cycle wakeup ordering).
 */
class YieldAwaiter
{
  public:
    explicit YieldAwaiter(sim::Engine &engine) : engine_(engine) {}

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        engine_.resumeHandle(0, h);
    }

    void await_resume() const noexcept {}

  private:
    sim::Engine &engine_;
};

/** co_await yield(engine): requeue at now(), after pending events. */
inline YieldAwaiter
yield(sim::Engine &engine)
{
    return YieldAwaiter(engine);
}

/**
 * FIFO of parked waiters (coroutine handles by default), as a
 * power-of-two ring. Allocates nothing until the first waiter queues:
 * a machine holds thousands of mutexes and resources (links, ports,
 * directory entries) that never see contention. Capacity is kept
 * across drains and clear().
 */
template <typename W = std::coroutine_handle<>>
class WaiterQueue
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    void
    push_back(W w)
    {
        if (size_ == capacity_)
            grow();
        ring_[(head_ + size_) & (capacity_ - 1)] = w;
        ++size_;
    }

    /** Remove and return the oldest waiter (queue must be non-empty). */
    W
    pop_front()
    {
        const W w = ring_[head_];
        head_ = (head_ + 1) & (capacity_ - 1);
        --size_;
        return w;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    void
    grow()
    {
        const std::uint32_t cap = capacity_ == 0 ? 4 : capacity_ * 2;
        auto ring = std::make_unique<W[]>(cap);
        for (std::uint32_t i = 0; i < size_; ++i)
            ring[i] = ring_[(head_ + i) & (capacity_ - 1)];
        ring_ = std::move(ring);
        capacity_ = cap;
        head_ = 0;
    }

    std::unique_ptr<W[]> ring_;
    std::uint32_t capacity_ = 0;
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
};

namespace detail {

/**
 * A parked waiter of a SimMutex or CondVar: a suspended coroutine
 * (wake == nullptr, ctx is its frame) or a plain callback, woken as
 * wake(ctx). Either way the wake is one delta-0 event, so a callback
 * waiter resumes at the (cycle, seq) a coroutine would.
 */
struct Waiter
{
    void *ctx;
    void (*wake)(void *) = nullptr;

    /** Hand-off event of a callback waiter (16 bytes, inline). */
    void operator()() const { wake(ctx); }

    /** File the wake: resume the frame, or run the callback. */
    void
    schedule(sim::Engine &engine) const
    {
        if (wake == nullptr)
            engine.resumeHandle(
                0, std::coroutine_handle<>::from_address(ctx));
        else
            engine.scheduleIn(0, *this);
    }
};

} // namespace detail

/**
 * FIFO mutex for coroutines.
 *
 * Models any hardware resource that serializes transactions: a
 * directory entry busy-bit, a cache bank port, a MAC transmit slot.
 *
 * Besides the classic lock()/unlock() protocol, a holder can take the
 * mutex as a *timed reservation* (tryReserve): the resource is busy
 * until a known future cycle, but no release event is scheduled — the
 * reservation simply stops mattering once the cycle is reached. Only
 * when a contender actually shows up while the reservation is live is
 * the release event materialized (at exactly the cycle an eager
 * scheduleUnlock would have fired, preserving FIFO grant order and
 * grant cycles bit-for-bit). This is what lets an uncontended mesh
 * transfer hold a whole route for the cost of zero engine events.
 */
class SimMutex
{
  public:
    explicit SimMutex(sim::Engine &engine) : engine_(engine) {}

    class LockAwaiter
    {
      public:
        explicit LockAwaiter(SimMutex &m) : mutex_(m) {}

        bool
        await_ready()
        {
            mutex_.pollExpiry();
            if (!mutex_.locked_) {
                mutex_.locked_ = true;
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            mutex_.waiters_.push_back(detail::Waiter{h.address()});
            mutex_.materializeRelease();
        }

        void await_resume() const noexcept {}

      private:
        SimMutex &mutex_;
    };

    /** co_await lock(); ... unlock(); */
    LockAwaiter lock() { return LockAwaiter(*this); }

    /**
     * lock() for a caller with no coroutine frame, after a failed
     * tryLock()/tryReserve(): queue FIFO behind the holder, exactly as
     * a suspending lock() would. @p grant(@p ctx) runs in the hand-off
     * event, at the (cycle, seq) where a parked coroutine would resume,
     * with the mutex held.
     */
    void
    wait(void (*grant)(void *), void *ctx)
    {
        WISYNC_ASSERT(locked_, "wait on a free SimMutex");
        waiters_.push_back(detail::Waiter{ctx, grant});
        materializeRelease();
    }

    /** Acquire without waiting; true on success. */
    bool
    tryLock()
    {
        pollExpiry();
        if (locked_)
            return false;
        locked_ = true;
        return true;
    }

    /**
     * True when a lock()/tryLock() at the current point of execution
     * would succeed immediately. Unlike tryLock this has no side
     * effects — introspection for tests and tooling.
     */
    bool
    available() const
    {
        return !locked_ || reservationElapsed();
    }

    /**
     * Try to acquire as a timed reservation releasing itself at
     * @p until (absolute cycle, > now); false if held. No release
     * event is scheduled unless a contender arrives before the
     * release would run — but the release's place in the global
     * insertion order IS claimed now (Engine::reserveSeq), so whether
     * or not it ever materializes, every other event keeps the exact
     * (cycle, seq) position an eager lock()+scheduleUnlock(until-now)
     * would have given it. Timing is therefore bit-identical to the
     * eager protocol; the uncontended case just never pays the event.
     */
    bool
    tryReserve(sim::Cycle until)
    {
        pollExpiry();
        if (locked_)
            return false;
        locked_ = true;
        holdUntil(until);
        return true;
    }

    /**
     * Turn a plain hold — typically one just granted to a wait() —
     * into a timed reservation releasing itself at @p until (absolute
     * cycle, > now), claiming the release's seq here, where an eager
     * scheduleUnlock() would draw it. Waiters already queued get the
     * release event at once; later ones materialize it on arrival.
     */
    void
    holdUntil(sim::Cycle until)
    {
        WISYNC_ASSERT(locked_ && reservedUntil_ == 0,
                      "holdUntil needs a plain hold");
        WISYNC_ASSERT(until > engine_.now(), "reservation must end later");
        reservedUntil_ = until;
        reservedSeq_ = engine_.reserveSeq();
        if (!waiters_.empty())
            materializeRelease();
    }

    /** End of the current timed reservation (0 = plain lock / free). */
    sim::Cycle lockedUntil() const { return reservedUntil_; }

    void
    unlock()
    {
        WISYNC_ASSERT(locked_, "unlock of unlocked SimMutex");
        reservedUntil_ = 0;
        if (waiters_.empty()) {
            locked_ = false;
            return;
        }
        // Hand the lock to the oldest waiter; resume via the engine so
        // the critical section starts at the current cycle but after
        // the unlocker's event completes.
        waiters_.pop_front().schedule(engine_);
    }

    /**
     * Release the lock @p delta cycles from now, from plain (non-
     * coroutine) code: the eager form of a fixed occupancy window.
     * The model holds such windows as timed reservations (tryReserve,
     * holdUntil); the SimMutexReserve tests use this eager protocol as
     * their reference.
     */
    void
    scheduleUnlock(sim::Cycle delta)
    {
        engine_.scheduleIn(delta, [this] { unlock(); });
    }

    bool locked() const { return locked_; }
    std::size_t waiting() const { return waiters_.size(); }

    /**
     * Drop all state (unlocked, no waiters). Only valid while no
     * coroutine that could legally resume still waits — i.e. after the
     * engine destroyed the frames parked here (Machine::reset), which
     * also discards any materialized release event.
     */
    void
    reset()
    {
        locked_ = false;
        reservedUntil_ = 0;
        releaseQueued_ = false;
        waiters_.clear();
    }

  private:
    /**
     * An expired, uncontested reservation is equivalent to released:
     * nobody queued during its window, so no release event exists and
     * the mutex silently becomes free. "Expired" honours the virtual
     * release's reserved position in the execution order: at the
     * release cycle itself the reservation only counts as gone once
     * the engine is past the reserved seq — before that point an
     * eager unlock event would not have run yet, and an attempt must
     * queue exactly as it would have then. (If someone did queue, the
     * materialized event performs the FIFO handoff instead, and this
     * poll must not bypass the queue — hence the releaseQueued_ and
     * waiters_ guards.)
     */
    /** The reservation's virtual release is behind the current point
     *  of execution, and nobody queued to materialize it for real. */
    bool
    reservationElapsed() const
    {
        if (reservedUntil_ == 0 || releaseQueued_ || !waiters_.empty())
            return false;
        const sim::Cycle now = engine_.now();
        return now > reservedUntil_ ||
               (now == reservedUntil_ &&
                engine_.currentSeq() > reservedSeq_);
    }

    void
    pollExpiry()
    {
        if (locked_ && reservationElapsed()) {
            locked_ = false;
            reservedUntil_ = 0;
        }
    }

    /** First contender during a live reservation: materialize the
     *  release under the reserved seq — the exact (cycle, seq) slot an
     *  eager scheduleUnlock would occupy. */
    void
    materializeRelease()
    {
        if (reservedUntil_ == 0 || releaseQueued_)
            return;
        releaseQueued_ = true;
        engine_.scheduleReserved(reservedUntil_, reservedSeq_, [this] {
            releaseQueued_ = false;
            unlock(); // clears reservedUntil_, hands off FIFO
        });
    }

    sim::Engine &engine_;
    bool locked_ = false;
    bool releaseQueued_ = false;
    sim::Cycle reservedUntil_ = 0;
    std::uint64_t reservedSeq_ = 0;
    WaiterQueue<detail::Waiter> waiters_;
};

/**
 * Counting semaphore with FIFO grant order.
 *
 * Models capacity-limited resources such as NoC links (flit slots per
 * cycle window) or DRAM controller queues.
 */
class Resource
{
  public:
    Resource(sim::Engine &engine, std::uint32_t capacity)
        : engine_(engine), available_(capacity), capacity_(capacity)
    {}

    class AcquireAwaiter
    {
      public:
        explicit AcquireAwaiter(Resource &r) : res_(r) {}

        bool
        await_ready()
        {
            if (res_.available_ > 0) {
                --res_.available_;
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            res_.waiters_.push_back(h);
        }

        void await_resume() const noexcept {}

      private:
        Resource &res_;
    };

    AcquireAwaiter acquire() { return AcquireAwaiter(*this); }

    void
    release()
    {
        if (!waiters_.empty()) {
            engine_.resumeHandle(0, waiters_.pop_front());
            return;
        }
        WISYNC_ASSERT(available_ < capacity_, "Resource over-release");
        ++available_;
    }

    std::uint32_t available() const { return available_; }

    /** Full capacity, no waiters (see SimMutex::reset caveat). */
    void
    reset()
    {
        available_ = capacity_;
        waiters_.clear();
    }

  private:
    sim::Engine &engine_;
    std::uint32_t available_;
    std::uint32_t capacity_;
    WaiterQueue<> waiters_;
};

/**
 * Broadcast condition variable over callback waiters.
 *
 * A party with no coroutine frame of its own (a MAC contender, say)
 * queues a (fn, ctx) pair and is woken, in FIFO order, by the next
 * notifyAll(). Spurious wakeups are expected; callers re-check.
 */
class CondVar
{
  public:
    explicit CondVar(sim::Engine &engine) : engine_(engine) {}

    /**
     * Queue @p wake(@p ctx) for the next notifyAll(): it runs in its
     * own delta-0 wake event, at the (cycle, seq) where a parked
     * coroutine would resume.
     */
    void
    wait(void (*wake)(void *), void *ctx)
    {
        waiters_.push_back(detail::Waiter{ctx, wake});
    }

    /** Wake every current waiter (at the present cycle). */
    void
    notifyAll()
    {
        if (waiters_.empty())
            return;
        // Move the list aside so waiters that immediately re-wait land
        // in a fresh round; the inline buffer keeps the common few-
        // waiter case allocation-free.
        auto woken = std::move(waiters_);
        for (const detail::Waiter &w : woken)
            w.schedule(engine_);
    }

    std::size_t waiting() const { return waiters_.size(); }

    /** Forget all waiters (see SimMutex::reset caveat). */
    void reset() { waiters_.clear(); }

  private:
    sim::Engine &engine_;
    sim::InlineVec<detail::Waiter, 4> waiters_;
};

class WatchList;

/**
 * One armed watch on a location: "did it change since I armed?"
 *
 * The record lives in the watcher's frame. A spinner arms it on its
 * node's list *before* loading the location and, if the value does
 * not satisfy it, co_awaits it; the list's owner fires the records of
 * a location when it changes (an L1 invalidation, a BM word update).
 * Awaiting a record that already fired does not suspend, so a change
 * between the load and the park is never lost. Firing a parked record
 * files its wake as one delta-0 resumeHandle event, once. A pipelined
 * fill arms one too and only reads fired(): an invalidation in flight
 * kills the fill.
 *
 * A record unlinks itself when its frame dies (a return, an exception
 * out of the load, Engine::reset), and a list that dies first detaches
 * its records, so no list ever points into a dead frame.
 */
class Watch
{
  public:
    Watch() = default;
    Watch(const Watch &) = delete;
    Watch &operator=(const Watch &) = delete;
    ~Watch() { unlink(); }

    /** List this record for @p loc at the tail of @p list (once). */
    inline void arm(WatchList &list, std::uint64_t loc);

    /** Whether the location changed since arm(). */
    bool fired() const { return fired_; }

    /** Mark fired; the first fire of a parked record files its wake. */
    void
    fire(sim::Engine &engine)
    {
        if (fired_)
            return;
        fired_ = true;
        if (parked_)
            engine.resumeHandle(0, parked_);
    }

    bool await_ready() const noexcept { return fired_; }

    /**
     * Park until fired. The record moves to the tail of its list, so a
     * list fires its parked records in park order (which need not be
     * arm order).
     */
    void
    await_suspend(std::coroutine_handle<> h)
    {
        parked_ = h;
        if (next_ == nullptr)
            return;
        Watch *last = next_;
        while (last->next_ != nullptr)
            last = last->next_;
        unlink();
        link(&last->next_);
    }

    void await_resume() const noexcept {}

  private:
    friend class WatchList;

    /** Insert at @p at (a tail next_ or an empty head). */
    void
    link(Watch **at)
    {
        pprev_ = at;
        *at = this;
    }

    void
    unlink()
    {
        if (pprev_ == nullptr)
            return;
        *pprev_ = next_;
        if (next_ != nullptr)
            next_->pprev_ = pprev_;
        pprev_ = nullptr;
        next_ = nullptr;
    }

    std::uint64_t loc_ = 0;
    bool fired_ = false;
    std::coroutine_handle<> parked_;
    Watch *next_ = nullptr;
    /** The link pointing at this record (nullptr: not listed). */
    Watch **pprev_ = nullptr;
};

/**
 * The armed Watch records of one watcher (a node, or a node's view of
 * one BM word), intrusive and allocation-free. Not movable: records
 * point into it.
 */
class WatchList
{
  public:
    WatchList() = default;
    WatchList(const WatchList &) = delete;
    WatchList &operator=(const WatchList &) = delete;

    ~WatchList()
    {
        for (Watch *w = head_; w != nullptr; w = w->next_)
            w->pprev_ = nullptr;
    }

    bool empty() const { return head_ == nullptr; }

    /** Armed records (fired or not), for tests and reset checks. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const Watch *w = head_; w != nullptr; w = w->next_)
            ++n;
        return n;
    }

    /** Fire every record of @p loc, parked ones in park order. */
    void
    fire(sim::Engine &engine, std::uint64_t loc)
    {
        for (Watch *w = head_; w != nullptr; w = w->next_)
            if (w->loc_ == loc)
                w->fire(engine);
    }

  private:
    friend class Watch;
    Watch *head_ = nullptr;
};

void
Watch::arm(WatchList &list, std::uint64_t loc)
{
    WISYNC_ASSERT(pprev_ == nullptr && !fired_, "Watch armed twice");
    loc_ = loc;
    Watch **at = &list.head_;
    while (*at != nullptr)
        at = &(*at)->next_;
    link(at);
}

namespace detail {

/**
 * Self-destroying root coroutine wrapper.
 *
 * Created suspended: the spawn functions build the frame eagerly (so
 * the callable and its arguments move straight into it, with no
 * intermediate closure), register it in the engine's detached-root
 * registry, and hand the raw handle to the resumeHandle fast path. On
 * completion the frame releases its registry slot and destroys itself
 * (final_suspend never suspends); an engine reset or destroyed with
 * the root still live destroys it through the registry instead, which
 * recursively tears down everything the root owns.
 */
struct Detached
{
    struct promise_type
    {
        /** Wrapper frames come from the same pool as Task frames. */
        static void *
        operator new(std::size_t bytes)
        {
            return framePoolAllocate(bytes);
        }

        static void
        operator delete(void *p) noexcept
        {
            framePoolDeallocate(p);
        }

        Detached
        get_return_object()
        {
            return Detached{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }
        std::suspend_always initial_suspend() const noexcept { return {}; }
        std::suspend_never final_suspend() const noexcept { return {}; }
        void return_void() const {}
        [[noreturn]] void unhandled_exception() const { std::terminate(); }
    };

    std::coroutine_handle<> handle;
};

/** Register an eagerly-built root frame and schedule its first resume. */
inline void
launchDetached(sim::Engine &engine, std::uint32_t slot,
               std::coroutine_handle<> h, sim::Cycle delta)
{
    engine.bindRoot(slot, h);
    engine.resumeHandle(delta, h);
}

} // namespace detail

/**
 * Launch @p task as a root activity at cycle now()+delta.
 *
 * @p task is a Task<void> or any other awaitable (a frameless
 * Mesh::send, say); the root frame holds it for its whole life. The
 * task (and anything it awaits) runs to completion on the engine;
 * @p on_done, if provided, fires after it finishes. Exceptions
 * escaping a detached task terminate the simulation (they indicate
 * model bugs).
 */
template <typename Awaitable, typename Done>
    requires std::invocable<Done>
void
spawnDetached(sim::Engine &engine, Awaitable task, Done on_done,
              sim::Cycle delta = 0)
{
    // The wrapper coroutine owns the task for its whole lifetime; the
    // task body starts when the engine resumes the wrapper.
    auto runner = [](sim::Engine *eng, std::uint32_t slot, Awaitable t,
                     Done done) -> detail::Detached {
        co_await t;
        done();
        eng->releaseRoot(slot);
    };
    const std::uint32_t slot = engine.reserveRoot();
    detail::launchDetached(
        engine, slot,
        runner(&engine, slot, std::move(task), std::move(on_done)).handle,
        delta);
}

/** spawnDetached without a completion callback. */
template <typename Awaitable>
void
spawnDetached(sim::Engine &engine, Awaitable task, sim::Cycle delta = 0)
{
    spawnDetached(engine, std::move(task), [] {}, delta);
}

/**
 * Launch `fn(args...)` as a root coroutine at now()+delta.
 *
 * Unlike calling a capturing lambda coroutine directly (whose closure
 * dies at the end of the spawning statement while the frame still
 * references it), this copies the callable and its arguments into the
 * wrapper frame, keeping them alive for the coroutine's lifetime. Use
 * this for capturing lambdas; spawnDetached is fine for free/member
 * coroutines.
 */
template <typename Fn, typename... Args>
void
spawnFn(sim::Engine &engine, sim::Cycle delta, Fn fn, Args... args)
{
    auto runner = [](sim::Engine *eng, std::uint32_t slot, Fn fn,
                     Args... args) -> detail::Detached {
        co_await std::invoke(fn, std::move(args)...);
        eng->releaseRoot(slot);
    };
    const std::uint32_t slot = engine.reserveRoot();
    detail::launchDetached(
        engine, slot,
        runner(&engine, slot, std::move(fn), std::move(args)...).handle,
        delta);
}

/** spawnFn starting at the current cycle. */
template <typename Fn, typename... Args>
void
spawnNow(sim::Engine &engine, Fn fn, Args... args)
{
    spawnFn(engine, 0, std::move(fn), std::move(args)...);
}

namespace detail {

/** First suspension of whenAll: file one delta-0 start event per leg,
 *  in list order, each leg completing straight into the join. */
template <typename TaskList>
struct StartLegs
{
    sim::Engine &engine;
    TaskList &legs;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> join)
    {
        for (auto &leg : legs)
            engine.resumeHandle(0, leg.continueInto(join));
    }

    void await_resume() const noexcept {}
};

} // namespace detail

/**
 * Run @p tasks concurrently; complete when the last one finishes.
 *
 * Models parallel hardware legs (e.g. invalidations fanned out to all
 * sharers) where completion time is the max over the legs. Accepts any
 * container of Task<void> by value (std::vector, sim::InlineVec) so
 * hot paths can fan out without a heap-allocated task list.
 *
 * The legs stay in this frame, so the join costs one frame besides
 * theirs. Each leg starts in its own delta-0 event, in list order, and
 * completes by symmetric transfer back into the join; the last one
 * files the join's wake, and the awaiter resumes one (delta-0) event
 * after that completion. An exception escaping a leg is rethrown to
 * the awaiter (the first failed leg in list order wins).
 */
template <typename TaskList = std::vector<Task<void>>>
inline Task<void>
whenAll(sim::Engine &engine, TaskList tasks)
{
    if (tasks.empty())
        co_return;
    std::size_t remaining = tasks.size();
    co_await detail::StartLegs<TaskList>{engine, tasks};
    // Resumed once per leg completion, inside the completing event.
    while (--remaining > 0)
        co_await std::suspend_always{};
    co_await yield(engine);
    for (auto &t : tasks)
        t.result();
}

} // namespace wisync::coro

#endif // WISYNC_CORO_PRIMITIVES_HH
