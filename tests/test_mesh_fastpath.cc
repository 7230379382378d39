/**
 * @file
 * The uncontended-fast-path contract, at three levels:
 *
 *  - sim::InlineVec unit suite (inline storage, heap spill, reuse,
 *    move-only elements — ASan covers the growth paths);
 *  - coro::SimMutex timed reservations (tryLock / tryReserve /
 *    holdUntil / lockedUntil, lazy release materialization, callback
 *    waiters, FIFO equivalence with the eager lock+scheduleUnlock
 *    protocol);
 *  - end-to-end identity: every figure-grid cell (ConfigKind x
 *    MacKind) must produce bit-identical KernelResults and memory/BM
 *    fingerprints with the fast paths on and off, contended heads
 *    must queue frameless without changing a single cycle, and the
 *    WISYNC_NO_FASTPATH env kill switch must reach the configs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/machine.hh"
#include "coro/frame_pool.hh"
#include "coro/primitives.hh"
#include "noc/mesh.hh"
#include "sim/engine.hh"
#include "sim/heap_counter.hh"
#include "sim/inline_vec.hh"
#include "workloads/cas_kernels.hh"
#include "workloads/kernel_result.hh"
#include "workloads/tight_loop.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::coro::SimMutex;
using wisync::coro::spawnNow;
using wisync::coro::Task;
using wisync::noc::Mesh;
using wisync::noc::MeshConfig;
using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::sim::InlineVec;
using wisync::sim::NodeId;
using wisync::wireless::MacKind;

// ---- InlineVec --------------------------------------------------------

TEST(InlineVec, StaysInlineUpToCapacity)
{
    InlineVec<std::uint32_t, 4> v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.capacity(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i)
        v.push_back(i * 3);
    EXPECT_TRUE(v.inlineStorage());
    EXPECT_EQ(v.size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(v[i], i * 3);
}

TEST(InlineVec, SpillsToHeapAndKeepsContents)
{
    InlineVec<std::uint32_t, 4> v;
    for (std::uint32_t i = 0; i < 100; ++i)
        v.push_back(i);
    EXPECT_FALSE(v.inlineStorage());
    EXPECT_EQ(v.size(), 100u);
    EXPECT_GE(v.capacity(), 100u);
    for (std::uint32_t i = 0; i < 100; ++i)
        EXPECT_EQ(v[i], i);
    EXPECT_EQ(v.front(), 0u);
    EXPECT_EQ(v.back(), 99u);
}

TEST(InlineVec, ClearKeepsSpilledCapacityForReuse)
{
    InlineVec<std::uint32_t, 2> v;
    for (std::uint32_t i = 0; i < 50; ++i)
        v.push_back(i);
    const auto cap = v.capacity();
    const auto *data = v.data();
    v.clear();
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.capacity(), cap);
    for (std::uint32_t i = 0; i < 50; ++i)
        v.push_back(i + 1);
    EXPECT_EQ(v.data(), data); // same spilled buffer, no realloc
    EXPECT_EQ(v[49], 50u);
}

TEST(InlineVec, MoveStealsHeapBufferAndCopiesInline)
{
    InlineVec<std::uint64_t, 4> big;
    for (std::uint64_t i = 0; i < 32; ++i)
        big.push_back(i);
    const auto *buf = big.data();
    InlineVec<std::uint64_t, 4> stolen(std::move(big));
    EXPECT_EQ(stolen.data(), buf); // heap buffer moved wholesale
    EXPECT_EQ(stolen.size(), 32u);
    EXPECT_TRUE(big.empty());
    EXPECT_TRUE(big.inlineStorage());

    InlineVec<std::uint64_t, 4> small;
    small.push_back(7);
    InlineVec<std::uint64_t, 4> copied(std::move(small));
    EXPECT_TRUE(copied.inlineStorage());
    EXPECT_EQ(copied.size(), 1u);
    EXPECT_EQ(copied[0], 7u);
}

TEST(InlineVec, SupportsMoveOnlyElements)
{
    InlineVec<std::unique_ptr<int>, 2> v;
    for (int i = 0; i < 10; ++i)
        v.push_back(std::make_unique<int>(i));
    EXPECT_EQ(v.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(*v[i], i);
    InlineVec<std::unique_ptr<int>, 2> w(std::move(v));
    EXPECT_EQ(*w[9], 9);
    w.pop_back();
    EXPECT_EQ(w.size(), 9u);
    w.clear();
    EXPECT_TRUE(w.empty());
}

TEST(InlineVec, MoveAssignReplacesContents)
{
    InlineVec<std::uint32_t, 2> a;
    a.push_back(1);
    InlineVec<std::uint32_t, 2> b;
    for (std::uint32_t i = 0; i < 20; ++i)
        b.push_back(i);
    a = std::move(b);
    EXPECT_EQ(a.size(), 20u);
    EXPECT_EQ(a[19], 19u);
}

// ---- SimMutex timed reservations --------------------------------------

TEST(SimMutexReserve, TryLockAndTryReserveBasics)
{
    Engine eng;
    SimMutex m(eng);
    EXPECT_TRUE(m.available());
    EXPECT_TRUE(m.tryLock());
    EXPECT_FALSE(m.tryLock());
    EXPECT_EQ(m.lockedUntil(), 0u); // plain lock, not a reservation
    m.unlock();
    EXPECT_FALSE(m.locked());
}

TEST(SimMutexReserve, UncontestedReservationExpiresWithNoEvents)
{
    Engine eng;
    SimMutex m(eng);
    bool second_ok = false;
    spawnNow(eng, [&]() -> Task<void> {
        EXPECT_TRUE(m.tryReserve(eng.now() + 5));
        EXPECT_EQ(m.lockedUntil(), eng.now() + 5);
        EXPECT_FALSE(m.tryReserve(eng.now() + 9)); // held
        co_await wisync::coro::delay(eng, 10);
        // Expired long ago: a fresh reservation succeeds immediately.
        EXPECT_TRUE(m.tryReserve(eng.now() + 3));
        second_ok = true;
    });
    eng.run();
    EXPECT_TRUE(second_ok);
}

TEST(SimMutexReserve, ContenderWaitsExactlyLikeEagerUnlock)
{
    // A reservation [t, t+7) and an eager lock+scheduleUnlock(7) must
    // grant a queued contender at the same cycle.
    auto run = [](bool reserve) {
        Engine eng;
        SimMutex m(eng);
        Cycle granted = 0;
        spawnNow(eng, [&]() -> Task<void> {
            if (reserve) {
                EXPECT_TRUE(m.tryReserve(eng.now() + 7));
            } else {
                co_await m.lock();
                m.scheduleUnlock(7);
            }
            co_return;
        });
        spawnNow(eng, [&]() -> Task<void> {
            co_await wisync::coro::delay(eng, 3);
            co_await m.lock(); // queues; release materializes at t=7
            granted = eng.now();
            m.unlock();
        });
        eng.run();
        return granted;
    };
    EXPECT_EQ(run(true), run(false));
    EXPECT_EQ(run(true), 7u);
}

TEST(SimMutexReserve, FifoOrderAcrossMixedProtocols)
{
    Engine eng;
    SimMutex m(eng);
    std::vector<int> order;
    spawnNow(eng, [&]() -> Task<void> {
        EXPECT_TRUE(m.tryReserve(eng.now() + 6));
        co_return;
    });
    auto waiter = [&](int id, Cycle start) -> Task<void> {
        co_await wisync::coro::delay(eng, start);
        co_await m.lock();
        order.push_back(id);
        m.unlock();
    };
    spawnNow(eng, waiter, 1, Cycle{2});
    spawnNow(eng, waiter, 2, Cycle{4});
    eng.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
}

/** A frameless waiter: wait() parks it, the grant records the cycle
 *  and runs the test's continuation. */
struct CallbackWaiter
{
    Engine *eng;
    Cycle granted = 0;
    std::function<void()> then;

    static void
    grant(void *self)
    {
        auto *w = static_cast<CallbackWaiter *>(self);
        w->granted = w->eng->now();
        w->then();
    }
};

/**
 * A callback waiter granted the mutex turns the hold into a timed
 * reservation (holdUntil). A waiter already queued at that moment must
 * get the release at the (cycle, seq) of the eager
 * lock()+scheduleUnlock protocol: markers scheduled for the release
 * cycle just before and just after the reservation see the second
 * waiter still queued and already handed the mutex, respectively.
 */
TEST(SimMutexReserve, WaiterQueuedAtHandOffGetsTheEagerReleaseSlot)
{
    struct Outcome
    {
        Cycle first = 0, second = 0;
        std::vector<std::size_t> waitingSeen;
        bool operator==(const Outcome &) const = default;
    };
    auto run = [](bool frameless) {
        Engine eng;
        SimMutex m(eng);
        Outcome out;
        auto hold = [&] {
            eng.scheduleIn(7, [&] { out.waitingSeen.push_back(m.waiting()); });
            if (frameless)
                m.holdUntil(eng.now() + 7);
            else
                m.scheduleUnlock(7);
            eng.scheduleIn(7, [&] { out.waitingSeen.push_back(m.waiting()); });
        };
        CallbackWaiter cb{&eng, 0, hold};
        EXPECT_TRUE(m.tryLock());       // the holder, until cycle 3
        eng.scheduleIn(3, [&] { m.unlock(); });
        if (frameless) {
            EXPECT_FALSE(m.tryReserve(eng.now() + 4));
            m.wait(&CallbackWaiter::grant, &cb);
        } else {
            spawnNow(eng, [&]() -> Task<void> {
                co_await m.lock();
                cb.granted = eng.now();
                hold();
            });
        }
        spawnNow(eng, [&]() -> Task<void> {
            co_await wisync::coro::delay(eng, 1);
            co_await m.lock(); // queued when the first waiter is granted
            out.second = eng.now();
            m.unlock();
        });
        eng.run();
        out.first = cb.granted;
        return out;
    };
    const Outcome eager = run(false);
    EXPECT_EQ(eager.first, 3u);
    EXPECT_EQ(eager.second, 10u);
    EXPECT_EQ(eager.waitingSeen, (std::vector<std::size_t>{1, 0}));
    EXPECT_EQ(run(true), eager);
}

// ---- Mesh fast path ---------------------------------------------------

MeshConfig
meshCfg(bool fastpath)
{
    MeshConfig c;
    c.numNodes = 64;
    c.fastpath = fastpath;
    return c;
}

TEST(MeshFastpath, UncontendedLatencyMatchesZeroLoadBothModes)
{
    for (const bool fp : {true, false}) {
        Engine eng;
        Mesh mesh(eng, meshCfg(fp));
        Cycle ctrl = 0, data = 0;
        spawnNow(eng, [&]() -> Task<void> {
            co_await mesh.send(0, 63, 64); // 1 flit
            ctrl = eng.now();
            co_await mesh.send(63, 0, 576); // 5 flits
            data = eng.now();
        });
        eng.run();
        EXPECT_EQ(ctrl, mesh.zeroLoadLatency(0, 63, 64)) << "fp=" << fp;
        EXPECT_EQ(data - ctrl, mesh.zeroLoadLatency(63, 0, 576))
            << "fp=" << fp;
        if (fp) {
            EXPECT_EQ(mesh.stats().fastpathHits.value(), 2u);
            EXPECT_EQ(mesh.stats().fastpathFallbacks.value(), 0u);
        } else {
            EXPECT_EQ(mesh.stats().fastpathHits.value(), 0u);
        }
    }
}

Task<void>
meshStream(Mesh &mesh, int count)
{
    for (int i = 0; i < count; ++i)
        co_await mesh.send(0, 63, 576);
}

/** An uncontended corner-to-corner stream on a warm, reset-reused
 *  engine and mesh: it must take the frameless chain and never touch
 *  the allocator inside run(). */
TEST(UncontendedMesh, StreamTakesFastPathWithoutAllocating)
{
    Engine eng;
    const MeshConfig cfg = meshCfg(true);
    Mesh mesh(eng, cfg);
    auto point = [&] {
        eng.reset();
        mesh.reset(cfg);
        wisync::coro::spawnDetached(eng, meshStream(mesh, 500));
    };
    point();
    ASSERT_TRUE(eng.run()); // warm-up: pools, buckets, ring capacity

    point();
    const std::uint64_t before = wisync::sim::heapAllocs();
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(wisync::sim::heapAllocs(), before);
    const double hits = static_cast<double>(mesh.stats().fastpathHits.value());
    const double attempts =
        hits + static_cast<double>(mesh.stats().fastpathFallbacks.value());
    ASSERT_GT(attempts, 0.0);
    EXPECT_GE(hits / attempts, 0.9);
}

/** Two same-cycle senders crossing one shared link, both directions of
 *  the timing comparison: the later sender must fall back and every
 *  completion cycle must match the fastpath-off run exactly. */
TEST(MeshFastpath, ForcedContentionFallsBackCycleExact)
{
    auto run = [](bool fp, Cycle *a_done, Cycle *b_done,
                  std::uint64_t *fallbacks) {
        Engine eng;
        Mesh mesh(eng, meshCfg(fp));
        // Both routes share the row-0 links eastward: 0->7 and 1->7.
        spawnNow(eng, [&, a_done]() -> Task<void> {
            co_await mesh.send(0, 7, 576);
            *a_done = eng.now();
        });
        spawnNow(eng, [&, b_done]() -> Task<void> {
            co_await mesh.send(1, 7, 576);
            *b_done = eng.now();
        });
        eng.run();
        *fallbacks = mesh.stats().fastpathFallbacks.value();
    };
    Cycle a_on = 0, b_on = 0, a_off = 0, b_off = 0;
    std::uint64_t fb_on = 0, fb_off = 0;
    run(true, &a_on, &b_on, &fb_on);
    run(false, &a_off, &b_off, &fb_off);
    EXPECT_EQ(a_on, a_off);
    EXPECT_EQ(b_on, b_off);
    EXPECT_GE(fb_on, 1u); // the blocked head converted to the wormhole
    EXPECT_EQ(fb_off, 0u);
}

/** The scenario above, measured on a warm engine: the blocked head
 *  waits in the link's FIFO as a plain callback, so run() allocates no
 *  coroutine frame and no heap memory, and it still matches the
 *  wormhole run cycle for cycle. */
TEST(MeshFastpath, ContendedHeadStaysFrameless)
{
    struct Outcome
    {
        Cycle aDone = 0;
        Cycle bDone = 0;
        std::uint64_t fallbacks = 0;
        std::uint64_t frames = 0; ///< coroutine frames allocated in run()
        std::uint64_t heap = 0;   ///< heap allocations in run()
    };
    auto run = [](bool fp) {
        Outcome r;
        Engine eng;
        const MeshConfig cfg = meshCfg(fp);
        Mesh mesh(eng, cfg);
        auto point = [&] {
            eng.reset();
            mesh.reset(cfg);
            // The send frames are built here, before run().
            wisync::coro::spawnDetached(eng, mesh.send(0, 7, 576),
                                        [&] { r.aDone = eng.now(); });
            wisync::coro::spawnDetached(eng, mesh.send(1, 7, 576),
                                        [&] { r.bDone = eng.now(); });
        };
        point();
        EXPECT_TRUE(eng.run()); // warm-up: pools, buckets, link FIFOs
        point();
        const auto &pool = wisync::coro::framePool().stats();
        const std::uint64_t frames = pool.pooledAllocs + pool.fallbackAllocs;
        const std::uint64_t heap = wisync::sim::heapAllocs();
        EXPECT_TRUE(eng.run());
        r.frames = pool.pooledAllocs + pool.fallbackAllocs - frames;
        r.heap = wisync::sim::heapAllocs() - heap;
        r.fallbacks = mesh.stats().fastpathFallbacks.value();
        return r;
    };
    const Outcome on = run(true);
    const Outcome off = run(false);
    EXPECT_EQ(on.fallbacks, 1u);
    EXPECT_EQ(on.frames, 0u);
    EXPECT_EQ(on.heap, 0u);
    EXPECT_GT(off.frames, 0u); // the wormhole coroutine's route frames
    EXPECT_EQ(on.aDone, off.aDone);
    EXPECT_EQ(on.bDone, off.bDone);
}

/** hopCycles == 0 makes the wormhole path lock a whole route inside
 *  one event (inline delay(0) awaiters); the step chain cannot
 *  reproduce that grant order, so send() must keep such configs on
 *  the wormhole path even with the fast path enabled. */
TEST(MeshFastpath, ZeroHopLatencyStaysCycleIdentical)
{
    auto run = [](bool fp) {
        Engine eng;
        MeshConfig c = meshCfg(fp);
        c.hopCycles = 0;
        Mesh mesh(eng, c);
        Cycle a = 0, b = 0;
        spawnNow(eng, [&]() -> Task<void> {
            co_await mesh.send(0, 3, 1024);
            a = eng.now();
        });
        spawnNow(eng, [&]() -> Task<void> {
            co_await mesh.send(1, 2, 128);
            b = eng.now();
        });
        eng.run();
        return std::pair{a, b};
    };
    EXPECT_EQ(run(true), run(false));
}

/** Saturating random traffic: heavy link contention, heads queued at
 *  several links of one route, reservations expiring under later
 *  traffic — the completion cycle of every message must match the
 *  wormhole run, over seeds, hop latencies and message sizes. Size 0
 *  mixes 1- and 5-flit messages, so short heads queue behind long
 *  reservations and the reverse; with seed 0xF00D and the default
 *  4-cycle hops it replays the original single storm message for
 *  message. */
TEST(MeshFastpath, RandomStormIsCycleIdenticalToWormhole)
{
    auto run = [](bool fp, std::uint64_t seed, std::uint32_t hop,
                  std::uint32_t size, std::uint64_t *fallbacks) {
        constexpr int kMessages = 48;
        Engine eng;
        MeshConfig c = meshCfg(fp);
        c.hopCycles = hop;
        Mesh mesh(eng, c);
        std::vector<Cycle> done(kMessages, 0);
        wisync::sim::Rng rng(seed);
        for (int t = 0; t < kMessages; ++t) {
            const NodeId src = static_cast<NodeId>(rng.below(64));
            const NodeId dst = static_cast<NodeId>(rng.below(64));
            const Cycle start = rng.below(40);
            const std::uint32_t bits =
                size != 0 ? size : rng.chance(0.5) ? 64 : 576;
            wisync::coro::spawnFn(
                eng, start,
                [&eng, &mesh, &done, src, dst, bits, t]() -> Task<void> {
                    co_await mesh.send(src, dst, bits);
                    done[t] = eng.now();
                });
        }
        EXPECT_TRUE(eng.run());
        *fallbacks = mesh.stats().fastpathFallbacks.value();
        return done;
    };
    std::uint64_t contended = 0;
    for (const std::uint64_t seed : {0xF00Dull, 1ull, 2ull, 3ull}) {
        for (const std::uint32_t hop : {2u, 4u, 6u}) {
            // 1 flit, 5 flits, and a per-message mix of the two.
            for (const std::uint32_t size : {64u, 576u, 0u}) {
                SCOPED_TRACE(::testing::Message() << "seed " << seed
                                                  << " hop " << hop
                                                  << " bits " << size);
                std::uint64_t fb_on = 0, fb_off = 0;
                EXPECT_EQ(run(true, seed, hop, size, &fb_on),
                          run(false, seed, hop, size, &fb_off));
                contended += fb_on;
            }
        }
    }
    EXPECT_GT(contended, 0u); // the storms did exercise held links
}

// ---- Full figure-grid identity ---------------------------------------

struct GridPoint
{
    wisync::workloads::KernelResult result;
    std::uint64_t memFp = 0;
    std::uint64_t bmFp = 0;
    std::uint64_t cycles = 0;
};

GridPoint
runPoint(ConfigKind kind, MacKind mac, bool fastpath, bool cas)
{
    auto cfg = MachineConfig::make(kind, 16);
    cfg.wireless.macKind = mac;
    cfg.setFastpath(fastpath);
    Machine m(cfg);
    GridPoint p;
    if (cas) {
        wisync::workloads::CasKernelParams params;
        params.duration = 30'000;
        p.result = wisync::workloads::runCasKernelOn(
            wisync::workloads::CasKernel::Lifo, m, params);
    } else {
        wisync::workloads::TightLoopParams params;
        params.iterations = 6;
        p.result = wisync::workloads::runTightLoopOn(m, params);
    }
    p.memFp = m.memory().fingerprint();
    p.bmFp = m.bm() ? m.bm()->storeArray().fingerprint() : 0;
    p.cycles = m.engine().now();
    return p;
}

class MeshFastpathGrid
    : public ::testing::TestWithParam<std::tuple<ConfigKind, MacKind>>
{};

INSTANTIATE_TEST_SUITE_P(
    Cells, MeshFastpathGrid,
    ::testing::Combine(::testing::Values(ConfigKind::Baseline,
                                         ConfigKind::BaselinePlus,
                                         ConfigKind::WiSyncNoT,
                                         ConfigKind::WiSync),
                       ::testing::Values(MacKind::Brs, MacKind::Token,
                                         MacKind::FuzzyToken,
                                         MacKind::Adaptive)));

TEST_P(MeshFastpathGrid, OnVsOffBitIdenticalFingerprints)
{
    const auto [kind, mac] = GetParam();
    for (const bool cas : {false, true}) {
        const auto on = runPoint(kind, mac, true, cas);
        const auto off = runPoint(kind, mac, false, cas);
        SCOPED_TRACE(cas ? "cas-lifo" : "tightloop");
        EXPECT_TRUE(wisync::workloads::bitIdentical(on.result,
                                                    off.result));
        EXPECT_EQ(on.cycles, off.cycles);
        EXPECT_EQ(on.memFp, off.memFp);
        EXPECT_EQ(on.bmFp, off.bmFp);
        // And the fast path must actually have carried traffic when on.
        EXPECT_GT(on.result.fastpathHits, 0u);
        EXPECT_EQ(off.result.fastpathHits, 0u);
    }
}

TEST(MeshFastpath, EnvKillSwitchReachesConfigs)
{
    setenv("WISYNC_NO_FASTPATH", "1", 1);
    const auto off = MachineConfig::make(ConfigKind::WiSync, 16);
    unsetenv("WISYNC_NO_FASTPATH");
    const auto on = MachineConfig::make(ConfigKind::WiSync, 16);
    EXPECT_FALSE(off.mesh.fastpath);
    EXPECT_FALSE(off.mem.fastpath);
    EXPECT_TRUE(on.mesh.fastpath);
    EXPECT_TRUE(on.mem.fastpath);
}

} // namespace
