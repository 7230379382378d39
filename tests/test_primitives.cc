/**
 * @file
 * Unit tests for coroutine timing/synchronization primitives.
 */

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <vector>

#include "coro/frame_pool.hh"
#include "coro/primitives.hh"
#include "coro/task.hh"
#include "sim/engine.hh"
#include "sim/heap_counter.hh"

namespace {

using wisync::coro::delay;
using wisync::coro::Join;
using wisync::coro::Resource;
using wisync::coro::SimMutex;
using wisync::coro::spawnNow;
using wisync::coro::Task;
using wisync::coro::WaiterQueue;
using wisync::sim::Cycle;
using wisync::sim::Engine;

TEST(SpawnDetached, PendingSpawnReleasedOnEngineTeardown)
{
    // An engine destroyed before the spawn cycle must release the
    // wrapper frame and the task moved into it (the spawn event owns
    // them until fired). The assertion body is trivial; the real check
    // is LeakSanitizer in the debug-asan-ubsan CI job.
    bool ran = false;
    {
        Engine eng;
        auto body = [&ran](Engine &e) -> Task<void> {
            co_await delay(e, 5);
            ran = true;
        };
        wisync::coro::spawnFn(eng, 10, body, std::ref(eng));
        EXPECT_EQ(eng.pendingEvents(), 1u);
        // Never run: teardown with the launcher still queued.
    }
    EXPECT_FALSE(ran);
}

/** A coroutine taking @p m: at once when it is free, else queued as
 *  the mutex's (fn, ctx) waiter with its frame. */
struct Lock
{
    SimMutex &m;

    bool await_ready() { return m.tryLock(); }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        m.wait(&wisync::coro::resumeFrame, h.address());
    }

    void await_resume() const noexcept {}
};

TEST(SimMutex, SerializesCriticalSections)
{
    Engine eng;
    SimMutex mtx(eng);
    std::vector<std::pair<int, Cycle>> entries;

    auto worker = [&](int id) -> Task<void> {
        co_await Lock{mtx};
        entries.emplace_back(id, eng.now());
        co_await delay(eng, 10);
        mtx.unlock();
    };
    for (int i = 0; i < 4; ++i)
        spawnNow(eng, worker, i);
    eng.run();

    ASSERT_EQ(entries.size(), 4u);
    // FIFO admission, each 10 cycles after the previous.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(entries[i].first, i);
        EXPECT_EQ(entries[i].second, static_cast<Cycle>(10 * i));
    }
}

/** A coroutine taking a unit of @p res, queued as the resource's
 *  callback waiter when none is free. */
struct Acquire
{
    Resource &res;

    bool await_ready() { return res.tryAcquire(); }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        res.wait(&wisync::coro::resumeFrame, h.address());
    }

    void await_resume() const noexcept {}
};

TEST(Resource, CapacityBoundsConcurrency)
{
    Engine eng;
    Resource res(eng, 3);
    int active = 0, peak = 0;

    auto worker = [&]() -> Task<void> {
        co_await Acquire{res};
        ++active;
        peak = std::max(peak, active);
        co_await delay(eng, 7);
        --active;
        res.release();
    };
    for (int i = 0; i < 10; ++i)
        spawnNow(eng, worker);
    eng.run();
    EXPECT_EQ(peak, 3);
    EXPECT_EQ(active, 0);
    EXPECT_EQ(res.available(), 3u);
}

TEST(WaiterQueue, MutexAndResourceConstructWithoutAllocating)
{
    // A machine holds thousands of these; most never see a waiter.
    Engine eng;
    const std::uint64_t before = wisync::sim::heapAllocs();
    {
        SimMutex mtx(eng);
        Resource res(eng, 2);
        ASSERT_TRUE(mtx.tryLock());
        mtx.unlock();
        mtx.reset();
        res.reset();
    }
    EXPECT_EQ(wisync::sim::heapAllocs(), before);
}

TEST(WaiterQueue, WrapsAndGrowsInFifoOrder)
{
    const auto handle = [](std::uintptr_t i) {
        return std::coroutine_handle<>::from_address(
            reinterpret_cast<void *>(i * 16));
    };
    WaiterQueue<std::coroutine_handle<>> q;
    std::uintptr_t pushed = 1, popped = 1;
    // Uneven push/pop rounds walk the head around the ring and force
    // growth while it is wrapped.
    for (const int round : {3, 2, 7, 1, 12}) {
        for (int i = 0; i < round; ++i)
            q.push_back(handle(pushed++));
        for (int i = 0; i < round - 1; ++i)
            EXPECT_EQ(q.pop_front(), handle(popped++));
    }
    EXPECT_EQ(q.size(), 5u);
    while (!q.empty())
        EXPECT_EQ(q.pop_front(), handle(popped++));
    EXPECT_EQ(popped, pushed);
}

TEST(WaiterQueue, DrainToEmptyAndRefillKeepsFifoGrantOrder)
{
    Engine eng;
    SimMutex mtx(eng);
    Resource res(eng, 1);
    std::vector<int> mutex_order, resource_order;

    auto mutex_worker = [&](int id) -> Task<void> {
        co_await Lock{mtx};
        mutex_order.push_back(id);
        co_await delay(eng, 3);
        mtx.unlock();
    };
    auto resource_worker = [&](int id) -> Task<void> {
        co_await Acquire{res};
        resource_order.push_back(id);
        co_await delay(eng, 3);
        res.release();
    };
    // Three waves, each queued only after the previous one drained the
    // queue completely, with sizes that wrap and regrow the ring.
    int id = 0;
    for (const int wave : {6, 3, 11}) {
        for (int i = 0; i < wave; ++i, ++id) {
            spawnNow(eng, mutex_worker, id);
            spawnNow(eng, resource_worker, id);
        }
        eng.run();
        EXPECT_EQ(mtx.waiting(), 0u);
        EXPECT_FALSE(mtx.locked());
        EXPECT_EQ(res.available(), 1u);
    }
    std::vector<int> expected(static_cast<std::size_t>(id));
    for (int i = 0; i < id; ++i)
        expected[static_cast<std::size_t>(i)] = i;
    EXPECT_EQ(mutex_order, expected);
    EXPECT_EQ(resource_order, expected);
}

TEST(SimMutex, HandoffKeepsCycleAccurate)
{
    // A lock released and re-acquired in the same cycle must not lose
    // or add time.
    Engine eng;
    SimMutex mtx(eng);
    std::vector<Cycle> times;
    auto worker = [&]() -> Task<void> {
        co_await Lock{mtx};
        times.push_back(eng.now());
        mtx.unlock(); // zero-cycle critical section
    };
    for (int i = 0; i < 3; ++i)
        spawnNow(eng, worker);
    eng.run();
    EXPECT_EQ(times, (std::vector<Cycle>{0, 0, 0}));
}

// ---- Join ----------------------------------------------------------------

/** Frames the calling thread's pool has handed out so far. */
std::uint64_t
framesMade()
{
    const auto &st = wisync::coro::framePool().stats();
    return st.pooledAllocs + st.fallbackAllocs;
}

/** A coroutine waiting for @p join's legs: at once when none is
 *  pending, else as the join's (fn, ctx) waiter with its frame. */
struct AwaitJoin
{
    Join &join;

    bool await_ready() const { return join.pending() == 0; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        join.wait(&wisync::coro::resumeFrame, h.address());
    }

    void await_resume() const noexcept {}
};

/** A detached leg: notes the event it starts in, waits, notes its
 *  end and reports to @p join. */
Task<void>
timedLeg(Engine &eng, Cycle wait, std::uint64_t *started,
         std::uint64_t *ended, Join *join)
{
    *started = eng.eventsExecuted();
    co_await delay(eng, wait);
    *ended = eng.eventsExecuted();
    join->done(eng);
}

/** The join's event contract: legs forked in list order start in a
 *  delta-0 event each; the awaiter resumes in the one event the last
 *  completion files. The join itself makes no frame. */
TEST(Join, LegsStartInListOrderAndTheAwaiterResumesOneEventAfterTheLast)
{
    Engine eng;
    std::uint64_t started[3] = {}, ended[3] = {};
    std::uint64_t fork = 0, joined = 0;
    Cycle joined_at = 0;
    const Cycle waits[3] = {3, 1, 5};
    auto parent = [&]() -> Task<void> {
        co_await delay(eng, 2);
        Join join;
        fork = eng.eventsExecuted();
        join.add(3);
        for (int i = 0; i < 3; ++i)
            wisync::coro::spawnDetached(
                eng, timedLeg(eng, waits[i], &started[i], &ended[i], &join));
        co_await AwaitJoin{join};
        joined = eng.eventsExecuted();
        joined_at = eng.now();
    };
    wisync::coro::spawnDetached(eng, parent());
    const std::uint64_t frames = framesMade();
    ASSERT_TRUE(eng.run());
    // Each detached leg is its task and its root wrapper.
    EXPECT_EQ(framesMade() - frames, 2u * 3u);
    EXPECT_EQ(started[0], fork + 1);
    EXPECT_EQ(started[1], fork + 2);
    EXPECT_EQ(started[2], fork + 3);
    EXPECT_EQ(joined_at, 2u + 5u);
    EXPECT_EQ(joined, ended[2] + 1); // the slowest leg, then the wake
    EXPECT_EQ(joined, eng.eventsExecuted());
    EXPECT_LT(ended[1], ended[0]);
}

/** A callback waiter wakes the same way, one delta-0 event after the
 *  last leg; a waiter of a join with no leg pending goes on at once. */
TEST(Join, CallbackWaiterAndEmptyJoin)
{
    Engine eng;
    Join join;
    std::uint64_t woke = 0;
    join.add(2);
    join.wait([](void *p) { *static_cast<std::uint64_t *>(p) = 1; },
              &woke);
    eng.scheduleIn(4, [&] { join.done(eng); });
    eng.scheduleIn(9, [&] { join.done(eng); });
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(woke, 1u);
    EXPECT_EQ(eng.now(), 9u);
    EXPECT_EQ(eng.eventsExecuted(), 3u);

    Engine eng2;
    Cycle done = 99;
    spawnNow(eng2, [&]() -> Task<void> {
        Join none;
        co_await AwaitJoin{none};
        done = eng2.now();
    });
    ASSERT_TRUE(eng2.run());
    EXPECT_EQ(done, 0u);
    EXPECT_EQ(eng2.eventsExecuted(), 1u);
}

/** Resetting the engine with legs parked mid-flight destroys the
 *  awaiter, the legs and what they await: no frame outlives the reset. */
TEST(Join, EngineResetMidFlightFreesEveryFrame)
{
    const std::uint64_t live = wisync::coro::framePool().liveFrames();
    Engine eng;
    std::uint64_t s[3] = {}, e[3] = {};
    spawnNow(eng, [&]() -> Task<void> {
        Join join;
        join.add(3);
        for (int i = 0; i < 3; ++i)
            wisync::coro::spawnDetached(
                eng, timedLeg(eng, 10 * (i + 1), &s[i], &e[i], &join));
        co_await AwaitJoin{join};
    });
    EXPECT_FALSE(eng.run(15)); // one leg done, two parked
    EXPECT_NE(e[0], 0u);
    EXPECT_EQ(e[2], 0u);
    EXPECT_GT(wisync::coro::framePool().liveFrames(), live);
    eng.reset();
    EXPECT_EQ(wisync::coro::framePool().liveFrames(), live);
    EXPECT_EQ(eng.pendingEvents(), 0u);
}

} // namespace
