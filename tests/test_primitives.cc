/**
 * @file
 * Unit tests for coroutine timing/synchronization primitives.
 */

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "coro/frame_pool.hh"
#include "coro/primitives.hh"
#include "coro/task.hh"
#include "sim/engine.hh"
#include "sim/heap_counter.hh"

namespace {

using wisync::coro::CondVar;
using wisync::coro::delay;
using wisync::coro::Resource;
using wisync::coro::SimMutex;
using wisync::coro::spawnNow;
using wisync::coro::Task;
using wisync::coro::WaiterQueue;
using wisync::coro::whenAll;
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

TEST(SimMutex, SerializesCriticalSections)
{
    Engine eng;
    SimMutex mtx(eng);
    std::vector<std::pair<int, Cycle>> entries;

    auto worker = [&](int id) -> Task<void> {
        co_await mtx.lock();
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

TEST(Resource, CapacityBoundsConcurrency)
{
    Engine eng;
    Resource res(eng, 3);
    int active = 0, peak = 0;

    auto worker = [&]() -> Task<void> {
        co_await res.acquire();
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
    WaiterQueue q;
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
        co_await mtx.lock();
        mutex_order.push_back(id);
        co_await delay(eng, 3);
        mtx.unlock();
    };
    auto resource_worker = [&](int id) -> Task<void> {
        co_await res.acquire();
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

/** A callback CondVar waiter that logs its id and wake cycle, and
 *  re-waits while @p rewaits is positive. */
struct CvProbe
{
    Engine *eng;
    CondVar *cv;
    int id;
    std::vector<int> *order;
    std::vector<Cycle> *when;
    int rewaits = 0;

    void wait() { cv->wait(&CvProbe::wake, this); }

    static void
    wake(void *p)
    {
        auto *pr = static_cast<CvProbe *>(p);
        pr->order->push_back(pr->id);
        pr->when->push_back(pr->eng->now());
        if (pr->rewaits-- > 0)
            pr->wait();
    }
};

TEST(CondVar, NotifyWakesAllWaiters)
{
    Engine eng;
    CondVar cv(eng);
    std::vector<int> order;
    std::vector<Cycle> when;
    std::vector<CvProbe> probes;
    for (int i = 0; i < 5; ++i)
        probes.push_back(CvProbe{&eng, &cv, i, &order, &when});
    for (CvProbe &p : probes)
        p.wait();
    eng.scheduleIn(50, [&] { cv.notifyAll(); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(when, std::vector<Cycle>(5, 50));
    EXPECT_EQ(eng.now(), 50u);
}

TEST(CondVar, NotifyWithNoWaitersIsNoop)
{
    Engine eng;
    CondVar cv(eng);
    cv.notifyAll();
    EXPECT_TRUE(eng.run());
}

TEST(CondVar, WaitersAfterNotifyNeedNextNotify)
{
    Engine eng;
    CondVar cv(eng);
    std::vector<int> order;
    std::vector<Cycle> wake_times;
    // Re-waits from inside its first wake: a fresh round, which only
    // the second notify ends.
    CvProbe probe{&eng, &cv, 1, &order, &wake_times, 1};
    probe.wait();
    eng.scheduleIn(10, [&] { cv.notifyAll(); });
    eng.scheduleIn(20, [&] { cv.notifyAll(); });
    eng.run();
    ASSERT_EQ(wake_times.size(), 2u);
    EXPECT_EQ(wake_times[0], 10u);
    EXPECT_EQ(wake_times[1], 20u);
    EXPECT_EQ(cv.waiting(), 0u);
}

/** Callback waiters wake in FIFO order, each in its own delta-0
 *  event, where a parked coroutine would resume. */
TEST(CondVar, CallbackWaiterWakesInTurnInItsOwnEvent)
{
    Engine eng;
    CondVar cv(eng);
    std::vector<int> order;
    std::vector<Cycle> when;
    std::vector<CvProbe> probes;
    for (const int id : {1, 2, 3})
        probes.push_back(CvProbe{&eng, &cv, id, &order, &when});
    for (CvProbe &p : probes)
        p.wait();
    EXPECT_EQ(cv.waiting(), 3u);
    eng.scheduleIn(7, [&] { cv.notifyAll(); });
    const auto before = eng.eventsExecuted();
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(eng.eventsExecuted() - before, 4u); // notify + 3 wakes
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(when, (std::vector<Cycle>{7, 7, 7}));
    EXPECT_EQ(cv.waiting(), 0u);
}

TEST(SimMutex, HandoffKeepsCycleAccurate)
{
    // A lock released and re-acquired in the same cycle must not lose
    // or add time.
    Engine eng;
    SimMutex mtx(eng);
    std::vector<Cycle> times;
    auto worker = [&]() -> Task<void> {
        co_await mtx.lock();
        times.push_back(eng.now());
        mtx.unlock(); // zero-cycle critical section
    };
    for (int i = 0; i < 3; ++i)
        spawnNow(eng, worker);
    eng.run();
    EXPECT_EQ(times, (std::vector<Cycle>{0, 0, 0}));
}

// ---- whenAll -------------------------------------------------------------

/** Frames the calling thread's pool has handed out so far. */
std::uint64_t
framesMade()
{
    const auto &st = wisync::coro::framePool().stats();
    return st.pooledAllocs + st.fallbackAllocs;
}

/** A leg: notes the event it starts in, waits, notes its end. */
Task<void>
timedLeg(Engine &eng, Cycle wait, std::uint64_t *started,
         std::uint64_t *ended)
{
    *started = eng.eventsExecuted();
    co_await delay(eng, wait);
    *ended = eng.eventsExecuted();
}

/** The join's event contract: each leg starts in a delta-0 event of
 *  its own, in list order; every leg completes straight back into the
 *  join; the awaiter resumes in the one event the last completion
 *  files. The join's only frame besides the legs' is its own. */
TEST(WhenAll, LegsStartInListOrderAndTheAwaiterResumesOneEventAfterTheLast)
{
    Engine eng;
    std::uint64_t started[3] = {}, ended[3] = {};
    std::uint64_t fork = 0, join = 0;
    Cycle joined_at = 0;
    const Cycle waits[3] = {3, 1, 5};
    auto parent = [&]() -> Task<void> {
        co_await delay(eng, 2);
        std::vector<Task<void>> legs;
        for (int i = 0; i < 3; ++i)
            legs.push_back(timedLeg(eng, waits[i], &started[i], &ended[i]));
        fork = eng.eventsExecuted();
        co_await whenAll(eng, std::move(legs));
        join = eng.eventsExecuted();
        joined_at = eng.now();
    };
    wisync::coro::spawnDetached(eng, parent());
    const std::uint64_t frames = framesMade();
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(framesMade() - frames, 3u + 1u); // the legs and the join
    EXPECT_EQ(started[0], fork + 1);
    EXPECT_EQ(started[1], fork + 2);
    EXPECT_EQ(started[2], fork + 3);
    EXPECT_EQ(joined_at, 2u + 5u);
    EXPECT_EQ(join, ended[2] + 1); // the slowest leg, then the wake
    EXPECT_EQ(join, eng.eventsExecuted());
    EXPECT_LT(ended[1], ended[0]);
}

TEST(WhenAll, EmptyListCompletesWithoutSuspending)
{
    Engine eng;
    Cycle done = 99;
    spawnNow(eng, [&]() -> Task<void> {
        co_await whenAll(eng, std::vector<Task<void>>{});
        done = eng.now();
    });
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(done, 0u);
    EXPECT_EQ(eng.eventsExecuted(), 1u);
}

Task<void>
failingLeg(Engine &eng, Cycle wait)
{
    co_await delay(eng, wait);
    throw std::runtime_error("leg failed");
}

/** An exception escaping a leg reaches the join's awaiter, once every
 *  leg is done (it is a model bug, but one the awaiter can see). */
TEST(WhenAll, ThrowingLegReachesTheAwaiter)
{
    Engine eng;
    std::uint64_t s = 0, e = 0;
    bool caught = false;
    Cycle caught_at = 0;
    spawnNow(eng, [&]() -> Task<void> {
        std::vector<Task<void>> legs;
        legs.push_back(failingLeg(eng, 2));
        legs.push_back(timedLeg(eng, 4, &s, &e));
        try {
            co_await whenAll(eng, std::move(legs));
        } catch (const std::runtime_error &) {
            caught = true;
            caught_at = eng.now();
        }
    });
    ASSERT_TRUE(eng.run());
    EXPECT_TRUE(caught);
    EXPECT_EQ(caught_at, 4u);
    EXPECT_NE(e, 0u);
}

/** Resetting the engine with legs parked mid-flight destroys the
 *  join, its legs and what they await: no frame outlives the reset. */
TEST(WhenAll, EngineResetMidFlightFreesEveryFrame)
{
    const std::uint64_t live = wisync::coro::framePool().liveFrames();
    Engine eng;
    std::uint64_t s[3] = {}, e[3] = {};
    spawnNow(eng, [&]() -> Task<void> {
        std::vector<Task<void>> legs;
        for (int i = 0; i < 3; ++i)
            legs.push_back(timedLeg(eng, 10 * (i + 1), &s[i], &e[i]));
        co_await whenAll(eng, std::move(legs));
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
