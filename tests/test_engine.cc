/**
 * @file
 * Unit tests for the discrete-event engine, including the scheduler's
 * edge cases: run(limit) parking across the level-0 window and the far
 * heap (including a parked window that wraps past bucket 255), stop()
 * mid-cycle with same-cycle events pending, reset() with every tier
 * populated, the coroutine resume fast path, and the level-0 segment
 * pool: bursts reuse recycled segments across buckets, and a
 * same-cycle reserved splice lands in order across a segment boundary.
 * The event slot: every callable is stored inline and allocates
 * nothing, and events dropped by reset() or teardown never run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "coro/primitives.hh"
#include "sim/engine.hh"
#include "sim/heap_counter.hh"

namespace {

using wisync::sim::Cycle;
using wisync::sim::Engine;

TEST(Engine, StartsAtCycleZero)
{
    Engine eng;
    EXPECT_EQ(eng.now(), 0u);
    EXPECT_EQ(eng.pendingEvents(), 0u);
}

TEST(Engine, ExecutesInTimeOrder)
{
    Engine eng;
    std::vector<int> order;
    eng.schedule(30, [&] { order.push_back(3); });
    eng.schedule(10, [&] { order.push_back(1); });
    eng.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eng.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eng.now(), 30u);
}

TEST(Engine, SameCycleEventsRunInInsertionOrder)
{
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eng.schedule(5, [&order, i] { order.push_back(i); });
    eng.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Engine, EventsCanScheduleMoreEvents)
{
    Engine eng;
    int fired = 0;
    eng.schedule(1, [&] {
        ++fired;
        eng.scheduleIn(4, [&] { ++fired; });
    });
    eng.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eng.now(), 5u);
}

TEST(Engine, RunHonorsCycleLimit)
{
    Engine eng;
    int fired = 0;
    eng.schedule(10, [&] { ++fired; });
    eng.schedule(100, [&] { ++fired; });
    EXPECT_FALSE(eng.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eng.now(), 50u);
    // Resume past the limit.
    EXPECT_TRUE(eng.run());
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eng.now(), 100u);
}

TEST(Engine, StopEndsRunEarly)
{
    Engine eng;
    int fired = 0;
    eng.schedule(1, [&] {
        ++fired;
        eng.stop();
    });
    eng.schedule(2, [&] { ++fired; });
    EXPECT_FALSE(eng.run());
    EXPECT_EQ(fired, 1);
    eng.run();
    EXPECT_EQ(fired, 2);
}

TEST(Engine, CountsExecutedEvents)
{
    Engine eng;
    for (int i = 0; i < 100; ++i)
        eng.schedule(static_cast<Cycle>(i), [] {});
    eng.run();
    EXPECT_EQ(eng.eventsExecuted(), 100u);
}

TEST(Engine, ZeroDelaySelfScheduleMakesProgress)
{
    Engine eng;
    int depth = 0;
    std::function<void()> step = [&] {
        if (++depth < 1000)
            eng.scheduleIn(0, [&] { step(); });
    };
    eng.schedule(0, [&] { step(); });
    EXPECT_TRUE(eng.run());
    EXPECT_EQ(depth, 1000);
    EXPECT_EQ(eng.now(), 0u);
}

TEST(Engine, ScheduleAtNowFromInsideCallbackRunsSameCycle)
{
    Engine eng;
    std::vector<int> order;
    eng.schedule(7, [&] {
        order.push_back(1);
        // Absolute-time variant of the zero-delay self-schedule: the
        // new event must run at cycle 7, after events already queued.
        eng.schedule(eng.now(), [&] { order.push_back(3); });
    });
    eng.schedule(7, [&] { order.push_back(2); });
    EXPECT_TRUE(eng.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eng.now(), 7u);
}

TEST(Engine, StopMidCycleKeepsSameCycleEventsPending)
{
    Engine eng;
    std::vector<int> order;
    struct
    {
        Engine &eng;
        std::vector<int> &order;
    } ctx{eng, order};
    for (int i = 0; i < 4; ++i) {
        eng.schedule(5, [c = &ctx, i] {
            c->order.push_back(i);
            if (i == 1)
                c->eng.stop();
        });
    }
    // Stopped after the second event: two same-cycle events pending.
    EXPECT_FALSE(eng.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eng.pendingEvents(), 2u);
    EXPECT_EQ(eng.now(), 5u);
    // Resume finishes the cycle in the original insertion order.
    EXPECT_TRUE(eng.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eng.now(), 5u);
}

TEST(Engine, StopFromRingEventKeepsRemainingRingPending)
{
    Engine eng;
    std::vector<int> order;
    eng.schedule(3, [&] {
        order.push_back(0);
        eng.scheduleIn(0, [&] { order.push_back(2); });
        eng.scheduleIn(0, [&] { order.push_back(3); });
        eng.stop();
    });
    eng.schedule(3, [&] { order.push_back(1); });
    EXPECT_FALSE(eng.run());
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_EQ(eng.pendingEvents(), 3u);
    EXPECT_TRUE(eng.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, RunLimitResumesAcrossCalendarBlocks)
{
    // Events beyond the level-0 window (256 cycles) wait in the far
    // heap and survive a park-and-resume at limits that land between
    // them.
    Engine eng;
    std::vector<Cycle> fired;
    for (Cycle when : {Cycle{10}, Cycle{300}, Cycle{70'000},
                       Cycle{20'000'000}, (Cycle{1} << 25) + 9})
        eng.schedule(when, [&fired, &eng] { fired.push_back(eng.now()); });

    EXPECT_FALSE(eng.run(100)); // parks mid-block
    EXPECT_EQ(eng.now(), 100u);
    EXPECT_EQ(fired, (std::vector<Cycle>{10}));

    EXPECT_FALSE(eng.run(299)); // parks one cycle before the event
    EXPECT_EQ(eng.now(), 299u);

    EXPECT_FALSE(eng.run(65'000)); // crosses the level-0 horizon
    EXPECT_EQ(fired, (std::vector<Cycle>{10, 300}));

    EXPECT_FALSE(eng.run(1'000'000));
    EXPECT_EQ(fired, (std::vector<Cycle>{10, 300, 70'000}));

    EXPECT_TRUE(eng.run()); // drains the far heap
    EXPECT_EQ(fired, (std::vector<Cycle>{10, 300, 70'000, 20'000'000,
                                         (Cycle{1} << 25) + 9}));
    EXPECT_EQ(eng.pendingEvents(), 0u);

    // Parked at 200, the level-0 window is [200, 456): 300 and 455 go
    // to buckets 44 and 199, below the current index, so finding them
    // takes peekNext()'s wrap past bucket 255.
    Engine wrap;
    fired.clear();
    auto log = [&fired, &wrap] { fired.push_back(wrap.now()); };
    wrap.schedule(210, log);
    EXPECT_FALSE(wrap.run(200));
    EXPECT_EQ(wrap.now(), 200u);
    wrap.schedule(300, log);
    wrap.schedule(455, log);
    EXPECT_FALSE(wrap.run(299));
    EXPECT_EQ(fired, (std::vector<Cycle>{210}));
    EXPECT_FALSE(wrap.run(454));
    EXPECT_EQ(fired, (std::vector<Cycle>{210, 300}));
    EXPECT_TRUE(wrap.run());
    EXPECT_EQ(fired, (std::vector<Cycle>{210, 300, 455}));
    EXPECT_EQ(wrap.tierStats().calendar, 3u);
    EXPECT_EQ(wrap.tierStats().heap, 0u);
}

TEST(Engine, ScheduleWhileParkedInsideBlock)
{
    // Park inside a block that still has a pending event, then insert
    // an earlier event from outside; both must fire in time order.
    Engine eng;
    std::vector<Cycle> fired;
    eng.schedule(200, [&] { fired.push_back(eng.now()); });
    EXPECT_FALSE(eng.run(50));
    eng.schedule(60, [&] { fired.push_back(eng.now()); });
    eng.scheduleIn(0, [&] { fired.push_back(eng.now()); }); // at 50
    EXPECT_TRUE(eng.run());
    EXPECT_EQ(fired, (std::vector<Cycle>{50, 60, 200}));
}

TEST(Engine, TierCountersClassifyInsertions)
{
    constexpr Cycle kH = Engine::kCalendarHorizon;
    Engine eng;
    eng.schedule(0, [] {});              // ready ring
    eng.schedule(3, [] {});              // level 0
    eng.schedule(Cycle{1} << 30, [] {}); // far heap
    EXPECT_FALSE(eng.run(250));          // parks inside the first block
    ASSERT_EQ(eng.now(), 250u);
    eng.schedule(300, [] {});            // crosses a block edge: level 0
    eng.schedule(250 + kH - 1, [] {});   // last cycle of the window
    eng.schedule(250 + kH, [] {});       // first cycle past it: far heap
    const auto &ts = eng.tierStats();
    EXPECT_EQ(ts.ready, 1u);
    EXPECT_EQ(ts.calendar, 3u);
    EXPECT_EQ(ts.heap, 2u);
    EXPECT_EQ(ts.cascades, 0u);
    EXPECT_EQ(eng.pendingEvents(), 4u);
    EXPECT_TRUE(eng.run());
    EXPECT_EQ(eng.eventsExecuted(), 6u);
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_EQ(ts.cascades, 2u); // each far event moves to level 0 once
}

/** Every way to schedule an event (a lambda, a (fn, ctx) waiter, an
 *  absolute cycle, a resumed coroutine handle), at deltas on both
 *  sides of every tier boundary, interleaved: execution is exactly
 *  (cycle, insertion) order. */
TEST(Engine, EverySchedulingFormRunsInCycleInsertionOrder)
{
    struct Rec
    {
        Cycle when;
        int id;
        bool operator==(const Rec &) const = default;
    };
    /** What the events touch: each captures a reference to it. */
    struct Script
    {
        Engine eng;
        std::vector<wisync::coro::Task<void>> frames;
        std::vector<Rec> ran;
        std::vector<Rec> expected;
        /** The contexts of the (fn, ctx) events. */
        std::deque<std::pair<Script *, int>> waiting;
        int next_id = 0;
    } sc;
    // Issued from inside an event at cycle 7, so the window is offset.
    sc.eng.schedule(7, [&sc] {
        for (const Cycle delta : {Cycle{0}, Cycle{1}, Cycle{255},
                                  Cycle{256}, Cycle{1000}}) {
            for (int kind = 0; kind < 4; ++kind) {
                const int id = sc.next_id++;
                const Cycle when = sc.eng.now() + delta;
                sc.expected.push_back(Rec{when, id});
                auto rec = [&sc, id] {
                    sc.ran.push_back(Rec{sc.eng.now(), id});
                };
                if (kind == 0) {
                    sc.eng.scheduleIn(delta, rec);
                } else if (kind == 1) {
                    sc.waiting.emplace_back(&sc, id);
                    sc.eng.scheduleIn(
                        delta, wisync::coro::detail::Waiter{
                                   &sc.waiting.back(), [](void *w) {
                                       const auto [script, i] = *static_cast<
                                           std::pair<Script *, int> *>(w);
                                       script->ran.push_back(
                                           Rec{script->eng.now(), i});
                                   }});
                } else if (kind == 2) {
                    sc.eng.schedule(when, rec);
                } else {
                    // A suspended frame, resumed by the engine.
                    sc.frames.push_back(
                        [](auto r) -> wisync::coro::Task<void> {
                            r();
                            co_return;
                        }(rec));
                    sc.eng.resumeHandle(delta,
                                        sc.frames.back().continueInto(
                                            std::noop_coroutine()));
                }
            }
        }
    });
    ASSERT_TRUE(sc.eng.run());
    std::stable_sort(sc.expected.begin(), sc.expected.end(),
                     [](const Rec &a, const Rec &b) {
                         return a.when < b.when;
                     });
    EXPECT_EQ(sc.ran, sc.expected);
    EXPECT_EQ(sc.eng.now(), 1007u);
}

/** The dominant model pattern: deltas under the level-0 window
 *  (wireless slots, mesh hops, cache latencies) go straight to level 0
 *  and never touch the far heap, even when they cross an aligned
 *  256-cycle block edge. */
TEST(SchedulerTiers, NearFutureSchedulesStayOffTheHeap)
{
    Engine eng;
    int left = 10000;
    struct Step
    {
        Engine *eng;
        int *left;
        void
        operator()() const
        {
            if (--*left > 0)
                eng->scheduleIn(1 + (*left & 63), Step{eng, left});
        }
    };
    eng.schedule(0, Step{&eng, &left});
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(left, 0);
    EXPECT_EQ(eng.tierStats().heap, 0u);
    EXPECT_EQ(eng.tierStats().cascades, 0u);
}

wisync::coro::Task<void>
yieldLoop(Engine &eng, int count)
{
    for (int i = 0; i < count; ++i)
        co_await wisync::coro::yield(eng);
}

/** A coroutine rescheduled at the current cycle (mutex handoff,
 *  CondVar wakeup, arbitration) belongs in the ready ring. */
TEST(SchedulerTiers, ZeroDelayResumesStayOffTheHeap)
{
    Engine eng;
    wisync::coro::spawnDetached(eng, yieldLoop(eng, 10000));
    ASSERT_TRUE(eng.run());
    EXPECT_GE(eng.tierStats().ready, 10000u);
    EXPECT_EQ(eng.tierStats().heap, 0u);
}

TEST(Engine, SameCycleOrderPreservedAcrossTierProvenance)
{
    // Two events for the same cycle, one scheduled from far away (it
    // waits in the far heap) and one scheduled close by (level 0):
    // insertion order must still decide the tie.
    Engine eng;
    std::vector<int> order;
    const Cycle target = 70'000;
    eng.schedule(target, [&] { order.push_back(1); }); // coarse resident
    eng.schedule(69'990, [&] {
        // Scheduled at target-10: lands in level 0, later insertion.
        eng.schedule(target, [&] { order.push_back(2); });
    });
    EXPECT_TRUE(eng.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- resumeHandle fast path ---------------------------------------------

struct FireAndForget
{
    struct promise_type
    {
        FireAndForget get_return_object() const { return {}; }
        std::suspend_never initial_suspend() const noexcept { return {}; }
        std::suspend_never final_suspend() const noexcept { return {}; }
        void return_void() const {}
        [[noreturn]] void unhandled_exception() const { std::terminate(); }
    };
};

struct ResumeIn
{
    Engine &eng;
    Cycle delta;
    bool await_ready() const noexcept { return false; }
    void
    await_suspend(std::coroutine_handle<> h)
    {
        eng.resumeHandle(delta, h);
    }
    void await_resume() const noexcept {}
};

FireAndForget
hopper(Engine &eng, std::vector<Cycle> &log)
{
    co_await ResumeIn{eng, 5};
    log.push_back(eng.now());
    co_await ResumeIn{eng, 0}; // same-cycle requeue
    log.push_back(eng.now());
    co_await ResumeIn{eng, 300}; // beyond the level-0 window
    log.push_back(eng.now());
}

TEST(Engine, ResumeHandleDrivesCoroutineThroughTiers)
{
    Engine eng;
    std::vector<Cycle> log;
    hopper(eng, log);
    EXPECT_EQ(eng.pendingEvents(), 1u);
    EXPECT_TRUE(eng.run());
    EXPECT_EQ(log, (std::vector<Cycle>{5, 5, 305}));
    EXPECT_EQ(eng.eventsExecuted(), 3u);
}

TEST(Engine, Level0BurstsReuseSegmentsAcrossBuckets)
{
    // Level-0 buckets draw fixed-size segments from one engine-wide
    // free list, so once one burst has been drained every other bucket
    // can take the same burst without touching the heap.
    constexpr int kBurst = 128; // four segments' worth
    Engine eng;
    int fired = 0;
    auto burst = [&](Cycle at) {
        for (int i = 0; i < kBurst; ++i)
            eng.schedule(at, [&fired] { ++fired; });
    };
    // Park at the end of the first block, then warm bucket 0 of the
    // next one (a one-cycle delay across the block edge: level 0).
    eng.schedule(255, [] {});
    ASSERT_TRUE(eng.run());
    burst(256);
    ASSERT_TRUE(eng.run());
    ASSERT_EQ(fired, kBurst);

    const std::uint64_t before = wisync::sim::heapAllocs();
    for (Cycle at = 257; at < 512; ++at) { // buckets 1..255, level 0
        burst(at);
        ASSERT_TRUE(eng.run());
    }
    EXPECT_EQ(wisync::sim::heapAllocs(), before);
    EXPECT_EQ(fired, 256 * kBurst);
    EXPECT_EQ(eng.now(), 511u);
}

TEST(Engine, SameCycleReservedSpliceCrossesSegmentBoundary)
{
    // One cycle of 40 events, a reserved seq, then 20 more: the bucket
    // spans two segments and the reserved slot belongs after the 40th
    // event, in the second one. Materializing it from events on either
    // side of the boundary must still run it exactly there.
    for (const int splicer : {0, 5, 31, 32, 35, 39}) {
        Engine eng;
        std::vector<int> order;
        std::uint64_t reserved = 0;
        struct
        {
            Engine &eng;
            std::vector<int> &order;
            std::uint64_t &reserved;
            int splicer;
        } ctx{eng, order, reserved, splicer};
        auto add = [&](int id) {
            eng.schedule(5, [c = &ctx, id] {
                c->order.push_back(id);
                if (id == c->splicer)
                    c->eng.scheduleReserved(5, c->reserved, [c] {
                        c->order.push_back(-1);
                    });
            });
        };
        for (int id = 0; id < 40; ++id)
            add(id);
        reserved = eng.reserveSeq();
        for (int id = 40; id < 60; ++id)
            add(id);
        EXPECT_TRUE(eng.run());
        std::vector<int> want;
        for (int id = 0; id < 40; ++id)
            want.push_back(id);
        want.push_back(-1);
        for (int id = 40; id < 60; ++id)
            want.push_back(id);
        EXPECT_EQ(order, want) << "spliced from event " << splicer;
        EXPECT_EQ(eng.eventsExecuted(), 61u);
        EXPECT_EQ(eng.pendingEvents(), 0u);
    }
}

TEST(Engine, StopInsideSplicedBucketKeepsRemainderPending)
{
    Engine eng;
    std::vector<int> order;
    std::uint64_t reserved = 0;
    struct
    {
        Engine &eng;
        std::vector<int> &order;
        std::uint64_t &reserved;
    } ctx{eng, order, reserved};
    for (int id = 0; id < 50; ++id)
        eng.schedule(9, [c = &ctx, id] {
            c->order.push_back(id);
            if (id == 2)
                c->eng.scheduleReserved(9, c->reserved,
                                        [c] { c->order.push_back(-1); });
            if (id == 20)
                c->eng.stop();
        });
    reserved = eng.reserveSeq();
    EXPECT_FALSE(eng.run());
    EXPECT_EQ(order.size(), 21u);
    EXPECT_EQ(eng.pendingEvents(), 30u); // 29 events + the reserved one
    EXPECT_TRUE(eng.run());
    ASSERT_EQ(order.size(), 51u);
    EXPECT_EQ(order[49], 49);
    EXPECT_EQ(order[50], -1);
}

/** A same-cycle scheduleReserved() splice runs from the level-0 bucket
 *  being drained and counts as a level-0 insertion, so the three
 *  insertion tiers account for every event dispatched or pending:
 *  mid-run (stopped inside the spliced bucket) and after the drain. */
TEST(Engine, TierCountersAddUpWithSameCycleSplices)
{
    Engine eng;
    const auto &ts = eng.tierStats();
    auto filed = [&] { return ts.ready + ts.calendar + ts.heap; };
    std::uint64_t reserved = 0;
    int spliced = 0;
    struct
    {
        Engine &eng;
        std::uint64_t &reserved;
        int &spliced;
    } ctx{eng, reserved, spliced};
    for (int id = 0; id < 3; ++id)
        eng.schedule(5, [c = &ctx, id] {
            if (id == 0) {
                c->eng.scheduleReserved(5, c->reserved,
                                        [c] { ++c->spliced; });
                c->eng.scheduleIn(0, [] {}); // ready ring
            }
            if (id == 2)
                c->eng.stop();
        });
    reserved = eng.reserveSeq();
    eng.schedule(5, [] {});
    eng.schedule(Cycle{1} << 20, [] {}); // far heap
    EXPECT_FALSE(eng.run());
    EXPECT_EQ(eng.eventsExecuted(), 3u);
    EXPECT_EQ(eng.pendingEvents(), 4u); // splice, id 3, ring, far
    EXPECT_EQ(ts.calendar, 5u);         // ids 0-3 and the splice
    EXPECT_EQ(filed(), eng.eventsExecuted() + eng.pendingEvents());
    EXPECT_TRUE(eng.run());
    EXPECT_EQ(spliced, 1);
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_EQ(ts.ready, 1u);
    EXPECT_EQ(ts.heap, 1u);
    EXPECT_EQ(filed(), eng.eventsExecuted());
    EXPECT_EQ(filed(), 7u);
}

// --- event slot: inline callables ---------------------------------------

TEST(EngineSlot, SmallTriviallyCopyableCallablesNeverAllocate)
{
    // 8- and 16-byte callables and coroutine resumes are stored in the
    // slot itself: once the tiers' pools are warm, scheduling them in
    // any tier touches no heap. (makeSlot rejects any other callable
    // at compile time.)
    Engine eng;
    int hits = 0;
    int *p = &hits;
    auto round = [&] {
        for (const Cycle delta : {Cycle{0}, Cycle{3}, Cycle{300}}) {
            eng.scheduleIn(delta, [p] { ++*p; });
            eng.scheduleIn(delta, [p, n = 2] { *p += n; });
            eng.schedule(eng.now() + delta, [&hits] { ++hits; });
        }
        ASSERT_TRUE(eng.run());
    };
    round(); // warm-up
    std::uint64_t before = wisync::sim::heapAllocs();
    round();
    EXPECT_EQ(wisync::sim::heapAllocs(), before);
    EXPECT_EQ(hits, 2 * 12);
}

/**
 * Inline events pending in every tier: the ready ring, the drain
 * cursor of a stopped bucket (or, after a same-cycle reserved splice,
 * staged_), a later level-0 bucket and the far heap. reset() and the
 * engine's destructor forget them all and run none of them, and a
 * reset engine runs the next script normally.
 */
TEST(EngineSlot, DroppedInlineEventsNeverRun)
{
    for (const bool splice : {false, true}) {
        for (const bool teardown : {false, true}) {
            int ran = 0;
            int *r = &ran;
            auto eng = std::make_unique<Engine>();
            Engine *e = eng.get();
            e->schedule(10, [e, splice] {
                if (splice)
                    e->scheduleReserved(10, e->reserveSeq(), [] {
                        ADD_FAILURE() << "a dropped splice ran";
                    });
                e->scheduleIn(0, [] {
                    ADD_FAILURE() << "a dropped ring event ran";
                });
                e->stop();
            });
            for (int i = 0; i < 40; ++i) // spans two level-0 segments
                e->schedule(10, [r] { ++*r; });
            e->schedule(100, [r] { ++*r; });  // level 0
            e->schedule(5000, [r] { ++*r; }); // far heap
            ASSERT_FALSE(e->run());
            ASSERT_EQ(e->now(), 10u);
            EXPECT_EQ(e->pendingEvents(), splice ? 44u : 43u);
            if (teardown) {
                eng.reset();
            } else {
                e->reset();
                EXPECT_EQ(e->pendingEvents(), 0u);
                EXPECT_TRUE(e->run());
                e->schedule(3, [r] { *r += 100; });
                e->schedule(3000, [r] { *r += 100; });
                EXPECT_TRUE(e->run());
                EXPECT_EQ(e->now(), 3000u);
            }
            // Only the rerun's two events ran.
            EXPECT_EQ(ran, teardown ? 0 : 200)
                << "splice " << splice << " teardown " << teardown;
        }
    }
}

using Trace = std::vector<std::pair<int, Cycle>>;

/** Schedules across every tier, parks once, and logs what fires. */
void
tierScript(Engine &eng, Trace &trace, std::vector<std::size_t> &pending)
{
    int id = 0;
    struct
    {
        Trace &trace;
        Engine &eng;
    } ctx{trace, eng};
    auto log = [c = &ctx](int i) {
        return [c, i] { c->trace.emplace_back(i, c->eng.now()); };
    };
    for (Cycle when : {Cycle{0}, Cycle{3}, Cycle{250}, Cycle{255},
                       Cycle{256}, Cycle{300}, Cycle{70'000},
                       Cycle{1} << 30})
        eng.schedule(when, log(id++));
    EXPECT_FALSE(eng.run(260));
    pending.push_back(eng.pendingEvents());
    for (Cycle delta : {Cycle{0}, Cycle{10}, Cycle{200}, Cycle{255},
                        Cycle{256}})
        eng.scheduleIn(delta, log(id++));
    pending.push_back(eng.pendingEvents());
    EXPECT_TRUE(eng.run());
    pending.push_back(eng.pendingEvents());
}

TEST(Engine, ResetWithEveryTierPopulatedMatchesFreshEngine)
{
    // Leave events in every tier: a stop() mid-bucket at 205 parks the
    // rest of that bucket in the drain cursor, 300 and 455 sit in the
    // wrapped half of the level-0 window, 1000 in the far heap, and a
    // zero-delay event in the ready ring.
    Engine used;
    used.schedule(210, [] {});
    used.schedule(1000, [] {});
    EXPECT_FALSE(used.run(200));
    used.schedule(205, [&used] { used.stop(); });
    used.schedule(205, [] {});
    used.schedule(300, [] {});
    used.schedule(455, [] {});
    EXPECT_FALSE(used.run());
    ASSERT_EQ(used.now(), 205u);
    used.scheduleIn(0, [] {});
    const auto &dirty = used.tierStats();
    ASSERT_GT(dirty.ready, 0u);
    ASSERT_GT(dirty.calendar, 0u);
    ASSERT_GT(dirty.heap, 0u);
    ASSERT_EQ(used.pendingEvents(), 6u);

    used.reset();
    EXPECT_EQ(used.now(), 0u);
    EXPECT_EQ(used.pendingEvents(), 0u);

    Engine fresh;
    Trace usedTrace;
    Trace freshTrace;
    std::vector<std::size_t> usedPending;
    std::vector<std::size_t> freshPending;
    tierScript(used, usedTrace, usedPending);
    tierScript(fresh, freshTrace, freshPending);
    EXPECT_EQ(usedTrace, freshTrace);
    EXPECT_EQ(usedPending, freshPending);
    EXPECT_EQ(used.now(), fresh.now());
    EXPECT_EQ(used.eventsExecuted(), fresh.eventsExecuted());
    const auto &a = used.tierStats();
    const auto &b = fresh.tierStats();
    EXPECT_EQ(a.ready, b.ready);
    EXPECT_EQ(a.calendar, b.calendar);
    EXPECT_EQ(a.heap, b.heap);
    EXPECT_EQ(a.cascades, b.cascades);
    EXPECT_GT(b.heap, 0u);
    EXPECT_GT(b.cascades, 0u);
}

} // namespace
