/**
 * @file
 * The one watch mechanism: a coro::Watch record armed in the waiter's
 * frame before it reads a location, fired by the location's owner
 * when it changes, and parked on until then. Memory spins (fired by
 * L1 invalidations), BM spins (fired by BM word writes) and pipelined
 * fills all use it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bm/bm_system.hh"
#include "core/machine.hh"
#include "coro/frame_pool.hh"
#include "coro/primitives.hh"
#include "coro/task.hh"
#include "sim/engine.hh"
#include "sim/heap_counter.hh"

namespace {

using wisync::bm::ProtectionFault;
using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::coro::delay;
using wisync::coro::spawnFn;
using wisync::coro::spawnNow;
using wisync::coro::Task;
using wisync::coro::Watch;
using wisync::coro::WatchList;
using wisync::sim::Addr;
using wisync::sim::BmAddr;
using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::sim::NodeId;

constexpr wisync::sim::Pid kPid = 1;

/** Coroutine frames made so far, pooled or not. */
std::uint64_t
framesMade()
{
    const auto &st = wisync::coro::framePool().stats();
    return st.pooledAllocs + st.fallbackAllocs;
}

/** Watch records armed anywhere in @p m (memory and BM). */
std::size_t
armedWatches(Machine &m)
{
    std::size_t n = m.bm()->storeArray().armedWatches();
    for (NodeId node = 0; node < m.config().numCores; ++node)
        n += m.mem().armedWatches(node);
    return n;
}

/** A fresh BM word of @p m, tagged for kPid. */
BmAddr
taggedWord(Machine &m)
{
    BmAddr addr = 0;
    EXPECT_TRUE(m.allocBm(1, addr));
    m.bm()->storeArray().setTag(addr, kPid);
    return addr;
}

// ---- The record ------------------------------------------------------

TEST(Watch, FiredBeforeTheAwaitDoesNotSuspend)
{
    Engine eng;
    WatchList list;
    bool done = false;
    spawnNow(eng, [&]() -> Task<void> {
        Watch w;
        w.arm(list, 5);
        list.fire(eng, 5);
        co_await w;
        done = true;
    });
    ASSERT_TRUE(eng.run());
    EXPECT_TRUE(done);
    EXPECT_EQ(eng.eventsExecuted(), 1u) << "only the spawn event ran";
    EXPECT_TRUE(list.empty());
}

/** A record armed earlier may park later: a list wakes its parked
 *  records in park order, each exactly once. */
TEST(Watch, ParkedRecordsWakeInParkOrderNotArmOrder)
{
    Engine eng;
    WatchList list;
    std::vector<int> woken;
    std::vector<Cycle> when;
    auto spinner = [&](int id, Cycle start, Cycle load) -> Task<void> {
        co_await delay(eng, start);
        Watch w;
        w.arm(list, 7);
        co_await delay(eng, load); // the "load" between arm and park
        co_await w;
        woken.push_back(id);
        when.push_back(eng.now());
    };
    spawnNow(eng, spinner, 1, Cycle{0}, Cycle{5}); // arms at 0, parks at 5
    spawnNow(eng, spinner, 2, Cycle{1}, Cycle{1}); // arms at 1, parks at 2
    eng.scheduleIn(10, [&] {
        list.fire(eng, 8); // another location
        list.fire(eng, 7);
        list.fire(eng, 7); // a second fire files nothing
    });
    const auto before = eng.eventsExecuted();
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(woken, (std::vector<int>{2, 1}));
    EXPECT_EQ(when, (std::vector<Cycle>{10, 10}));
    // 2 spawns, 3 start/load delays (a zero delay does not suspend),
    // the fire, 2 wakes.
    EXPECT_EQ(eng.eventsExecuted() - before, 8u);
    EXPECT_TRUE(list.empty());
}

TEST(Watch, DyingFramesUnlinkAndADyingListDetaches)
{
    auto park = [](Engine &eng, WatchList &list) {
        spawnNow(eng, [&list]() -> Task<void> {
            Watch w;
            w.arm(list, 1);
            co_await w;
        });
        EXPECT_TRUE(eng.run());
        EXPECT_EQ(list.size(), 1u);
    };
    {
        Engine eng;
        WatchList list;
        park(eng, list);
        eng.reset(); // destroys the parked frame
        EXPECT_TRUE(list.empty());
    }
    {
        Engine eng;
        auto list = std::make_unique<WatchList>();
        park(eng, *list);
        list.reset();
        // ~Engine destroys the parked frame after its list died; the
        // record must not write into the freed list (ASan checks).
    }
}

// ---- Memory and BM spins -------------------------------------------

TEST(Watch, TwoSpinnersOnOneNodeLineWakeInParkOrder)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 16));
    Engine &eng = m.engine();
    const Addr flag = m.allocMem(64);
    std::vector<int> woken;
    for (const int id : {0, 1}) {
        spawnFn(eng, Cycle(id * 10), [&m, &woken, flag, id]() -> Task<void> {
            co_await m.mem().spinUntil(3, flag, 1);
            woken.push_back(id);
        });
    }
    ASSERT_TRUE(eng.run());
    ASSERT_EQ(m.mem().armedWatches(3), 2u);
    spawnNow(eng, [&m, flag]() -> Task<void> {
        co_await m.mem().store(9, flag, 1);
    });
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(woken, (std::vector<int>{0, 1}));
    EXPECT_EQ(armedWatches(m), 0u);
}

TEST(Watch, TwoSpinnersOnOneNodeBmWordWakeInParkOrder)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 16));
    Engine &eng = m.engine();
    const BmAddr word = taggedWord(m);
    std::vector<int> woken;
    for (const int id : {0, 1}) {
        spawnFn(eng, Cycle(id), [&m, &woken, word, id]() -> Task<void> {
            co_await m.bm()->spinUntil(3, kPid, word, 1);
            woken.push_back(id);
        });
    }
    ASSERT_TRUE(eng.run());
    ASSERT_EQ(m.bm()->storeArray().armedWatches(), 2u);
    spawnNow(eng, [&m, word]() -> Task<void> {
        co_await m.bm()->store(9, kPid, word, 1);
    });
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(woken, (std::vector<int>{0, 1}));
    EXPECT_EQ(armedWatches(m), 0u);
}

/**
 * A write that lands while a BM spin's load is in flight fires the
 * record armed before the load: the spinner, reading a value that
 * still does not satisfy it, loops at once instead of parking.
 */
TEST(Watch, WriteDuringTheLoadLoopsWithoutSuspending)
{
    // The cycle at which a store of 0 from node 9 lands on node 3.
    Cycle landed = 0;
    {
        Machine m(MachineConfig::make(ConfigKind::WiSync, 16));
        const BmAddr word = taggedWord(m);
        spawnNow(m.engine(), [&m, &landed, word]() -> Task<void> {
            Watch w;
            m.bm()->storeArray().arm(w, 3, word);
            co_await w;
            landed = m.engine().now();
        });
        spawnNow(m.engine(), [&m, word]() -> Task<void> {
            co_await m.bm()->store(9, kPid, word, 0);
        });
        ASSERT_TRUE(m.engine().run());
        ASSERT_GT(landed, 1u);
    }

    Machine m(MachineConfig::make(ConfigKind::WiSync, 16));
    ASSERT_GE(m.config().bm.bmRtCycles, 2u);
    Engine &eng = m.engine();
    const BmAddr word = taggedWord(m);
    std::optional<std::uint64_t> seen;
    // Arm and start the load one cycle before the same store lands.
    spawnFn(eng, landed - 1, [&m, &seen, word]() -> Task<void> {
        seen = co_await m.bm()->spinWhile(3, kPid, word, 0);
    });
    spawnNow(eng, [&m, word]() -> Task<void> {
        co_await m.bm()->store(9, kPid, word, 0);
        co_await delay(m.engine(), 2000);
        co_await m.bm()->store(9, kPid, word, 5);
    });
    EXPECT_FALSE(eng.run(landed + 100));
    ASSERT_FALSE(seen);
    // The fired record did not park the spinner: it loaded again and
    // parked on a fresh record.
    EXPECT_EQ(m.bm()->stats().loads.value(), 2u);
    EXPECT_EQ(m.bm()->storeArray().armedWatches(), 1u);
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(seen, 5u);
    EXPECT_EQ(m.bm()->stats().loads.value(), 3u);
}

TEST(Watch, ProtectionFaultOutOfABmSpinLeavesNothingArmed)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 16));
    Engine &eng = m.engine();
    const BmAddr word = taggedWord(m);
    bool faulted = false;
    spawnNow(eng, [&m, &faulted, word]() -> Task<void> {
        try {
            co_await m.bm()->spinUntil(3, kPid + 1, word, 1);
        } catch (const ProtectionFault &) {
            faulted = true;
        }
    });
    ASSERT_TRUE(eng.run());
    EXPECT_TRUE(faulted);
    EXPECT_EQ(armedWatches(m), 0u);
    // The word's lists must not reach into the dead frame (ASan).
    spawnNow(eng, [&m, word]() -> Task<void> {
        co_await m.bm()->store(9, kPid, word, 1);
    });
    ASSERT_TRUE(eng.run());
    m.bm()->storeArray().writeAll(word, 2);
    EXPECT_EQ(eng.pendingEvents(), 0u);
}

/** Observable outcome of spinRace(). */
struct RaceResult
{
    Cycle cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t memLoads = 0;
    std::uint64_t bmLoads = 0;
    std::uint64_t values = 0;

    bool operator==(const RaceResult &) const = default;
};

/** Spinners on a line (node 2) and a BM word (node 5), released by
 *  node 9's writes at @p release, adding what they read to
 *  @p values. */
void
spinRace(Machine &m, Cycle release, std::uint64_t *values)
{
    const Addr flag = m.allocMem(64);
    const BmAddr word = taggedWord(m);
    Engine &eng = m.engine();
    spawnNow(eng, [&m, flag, values]() -> Task<void> {
        *values += co_await m.mem().spinUntil(2, flag, 1);
    });
    spawnNow(eng, [&m, word, values]() -> Task<void> {
        *values += co_await m.bm()->spinUntil(5, kPid, word, 1);
    });
    spawnFn(eng, release, [&m, flag, word]() -> Task<void> {
        co_await m.mem().store(9, flag, 1);
        co_await m.bm()->store(9, kPid, word, 1);
    });
}

RaceResult
runRace(Machine &m)
{
    RaceResult r;
    spinRace(m, 400, &r.values);
    EXPECT_TRUE(m.engine().run());
    r.cycles = m.engine().now();
    r.events = m.engine().eventsExecuted();
    r.memLoads = m.mem().stats().loads.value();
    r.bmLoads = m.bm()->stats().loads.value();
    return r;
}

TEST(Watch, ResetWithParkedSpinnersLeavesNothingArmed)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 16));
    std::uint64_t values = 0;
    spinRace(m, 400, &values);
    EXPECT_FALSE(m.engine().run(300));
    EXPECT_EQ(m.mem().armedWatches(2), 1u);
    EXPECT_EQ(m.bm()->storeArray().armedWatches(), 1u);
    m.reset();
    EXPECT_EQ(armedWatches(m), 0u);
    EXPECT_EQ(m.engine().pendingEvents(), 0u);

    const RaceResult reused = runRace(m);
    Machine fresh(MachineConfig::make(ConfigKind::WiSync, 16));
    const RaceResult expect = runRace(fresh);
    EXPECT_EQ(reused, expect);
    EXPECT_EQ(expect.values, 2u);
    EXPECT_EQ(armedWatches(m), 0u);
}

/**
 * A wait costs no frame and, on a warm machine, no allocation: a
 * memory spin and a BM spin that each park once make exactly the
 * frames of the same spins finding their values already written.
 */
TEST(Watch, WarmSpinWaitsMakeNoFramesOrAllocations)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 16));
    Engine &eng = m.engine();
    // One spin scenario. Nodes 9 and 2 first share the line (holding
    // 2, so the functional store allocates nothing later); node 9's
    // store of 1 upgrades and invalidates node 2 either way, and node
    // 2's spin then misses once either way: before its first load
    // (@p wait false) or after the wake (@p wait true). The BM word is
    // written directly, with no broadcast frames.
    auto scenario = [&](bool wait, std::uint64_t *frames,
                        std::uint64_t *allocs) {
        m.reset();
        const Addr flag = m.allocMem(64);
        const BmAddr word = taggedWord(m);
        spawnNow(eng, [&m, flag]() -> Task<void> {
            co_await m.mem().store(9, flag, 2);
            co_await m.mem().load(2, flag);
        });
        ASSERT_TRUE(eng.run());
        const Cycle spin_at = wait ? 0 : 1000;
        const Cycle write_at = wait ? 1000 : 0;
        const std::uint64_t f0 = framesMade();
        spawnFn(eng, spin_at, [&m, flag, word]() -> Task<void> {
            co_await m.mem().spinUntil(2, flag, 1);
            co_await m.bm()->spinUntil(2, kPid, word, 1);
        });
        spawnFn(eng, write_at, [&m, flag]() -> Task<void> {
            co_await m.mem().store(9, flag, 1);
        });
        eng.scheduleIn(write_at + 500, [&m, word] {
            m.bm()->storeArray().writeAll(word, 1);
        });
        const std::uint64_t a0 = wisync::sim::heapAllocs();
        ASSERT_TRUE(eng.run());
        *frames = framesMade() - f0;
        *allocs = wisync::sim::heapAllocs() - a0;
        EXPECT_EQ(armedWatches(m), 0u);
    };
    std::uint64_t frames = 0, allocs = 0;
    scenario(true, &frames, &allocs); // warm up
    std::uint64_t wait_frames = 0, wait_allocs = 0;
    scenario(true, &wait_frames, &wait_allocs);
    std::uint64_t ready_frames = 0, ready_allocs = 0;
    scenario(false, &ready_frames, &ready_allocs);
    EXPECT_EQ(wait_frames, ready_frames);
    EXPECT_EQ(wait_allocs, 0u);
}

} // namespace
