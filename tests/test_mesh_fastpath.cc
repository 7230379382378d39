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
 *  - end-to-end pins: the mesh step chain and the frameless memory
 *    accesses reproduce, cycle for cycle, the outputs of the wormhole
 *    and per-access coroutines they replaced. Those outputs (completion
 *    cycles of contended and random-storm messages; cycles, memory/BM
 *    fingerprints and simulated counters of every figure-grid cell,
 *    ConfigKind x MacKind) were recorded from the coroutine paths and
 *    are pinned here as constants, and contended heads must queue
 *    frameless.
 */

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "core/machine.hh"
#include "coro/frame_pool.hh"
#include "coro/primitives.hh"
#include "noc/mesh.hh"
#include "sim/engine.hh"
#include "sim/fnv1a.hh"
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
meshCfg()
{
    MeshConfig c;
    c.numNodes = 64;
    return c;
}

/** Both completion modes of the step chain: a single-flit head resumes
 *  the sender inside its arrival event, a multi-flit one after the
 *  tail's flits-1 cycles. */
TEST(MeshFastpath, UncontendedLatencyMatchesZeroLoadBothModes)
{
    Engine eng;
    Mesh mesh(eng, meshCfg());
    Cycle ctrl = 0, data = 0;
    spawnNow(eng, [&]() -> Task<void> {
        co_await mesh.send(0, 63, 64); // 1 flit
        ctrl = eng.now();
        co_await mesh.send(63, 0, 576); // 5 flits
        data = eng.now();
    });
    eng.run();
    EXPECT_EQ(ctrl, mesh.zeroLoadLatency(0, 63, 64));
    EXPECT_EQ(data - ctrl, mesh.zeroLoadLatency(63, 0, 576));
    EXPECT_EQ(mesh.stats().fastpathHits.value(), 2u);
    EXPECT_EQ(mesh.stats().fastpathFallbacks.value(), 0u);
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
    const MeshConfig cfg = meshCfg();
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

/** Completion cycles of the two sends below (0->7 and 1->7, 5 flits,
 *  same cycle), recorded from the wormhole coroutine: the 1->7 head
 *  takes the shared row-0 link first and the 0->7 head queues. */
constexpr Cycle kContendedADone = 33;
constexpr Cycle kContendedBDone = 28;

/** The held-link tree multicast below, recorded from the coroutine
 *  tree walk: completion cycles and engine events of one point. */
constexpr Cycle kTreeHeldUnicastDone = 32;
constexpr Cycle kTreeHeldMulticastDone = 61;
constexpr std::uint64_t kTreeHeldEvents = 194;

/** Two same-cycle senders crossing one shared link: the later sender
 *  must fall back (queue) and both complete at the pinned cycles. */
TEST(MeshFastpath, ForcedContentionFallsBackCycleExact)
{
    Engine eng;
    Mesh mesh(eng, meshCfg());
    Cycle a_done = 0, b_done = 0;
    // Both routes share the row-0 links eastward: 0->7 and 1->7.
    spawnNow(eng, [&]() -> Task<void> {
        co_await mesh.send(0, 7, 576);
        a_done = eng.now();
    });
    spawnNow(eng, [&]() -> Task<void> {
        co_await mesh.send(1, 7, 576);
        b_done = eng.now();
    });
    eng.run();
    EXPECT_EQ(a_done, kContendedADone);
    EXPECT_EQ(b_done, kContendedBDone);
    EXPECT_GE(mesh.stats().fastpathFallbacks.value(), 1u);
}

/** The scenario above, measured on a warm engine: the blocked head
 *  waits in the link's FIFO as a plain callback, so run() allocates no
 *  coroutine frame and no heap memory, and it still completes at the
 *  pinned cycles. */
TEST(MeshFastpath, ContendedHeadStaysFrameless)
{
    Cycle a_done = 0, b_done = 0;
    Engine eng;
    const MeshConfig cfg = meshCfg();
    Mesh mesh(eng, cfg);
    auto point = [&] {
        eng.reset();
        mesh.reset(cfg);
        // The send frames are built here, before run().
        wisync::coro::spawnDetached(eng, mesh.send(0, 7, 576),
                                    [&] { a_done = eng.now(); });
        wisync::coro::spawnDetached(eng, mesh.send(1, 7, 576),
                                    [&] { b_done = eng.now(); });
    };
    point();
    EXPECT_TRUE(eng.run()); // warm-up: pools, buckets, link FIFOs
    point();
    const auto &pool = wisync::coro::framePool().stats();
    const std::uint64_t frames = pool.pooledAllocs + pool.fallbackAllocs;
    const std::uint64_t heap = wisync::sim::heapAllocs();
    EXPECT_TRUE(eng.run());
    EXPECT_EQ(pool.pooledAllocs + pool.fallbackAllocs - frames, 0u);
    EXPECT_EQ(wisync::sim::heapAllocs() - heap, 0u);
    EXPECT_EQ(mesh.stats().fastpathFallbacks.value(), 1u);
    EXPECT_EQ(a_done, kContendedADone);
    EXPECT_EQ(b_done, kContendedBDone);
}

/** FNV-1a over completion cycles, each as 8 little-endian bytes. */
std::uint64_t
cycleDigest(const std::vector<Cycle> &cycles)
{
    wisync::sim::Fnv1a f;
    for (const Cycle c : cycles)
        f.u64(c);
    return f.h;
}

/** Saturating random traffic: heavy link contention, heads queued at
 *  several links of one route, reservations expiring under later
 *  traffic — the completion cycle of every message must match the
 *  wormhole coroutine's, pinned as one digest per cell over seeds,
 *  hop latencies and message sizes. Size 0 mixes 1- and 5-flit
 *  messages, so short heads queue behind long reservations and the
 *  reverse. */
TEST(MeshFastpath, RandomStormIsCycleIdenticalToWormhole)
{
    auto run = [](std::uint64_t seed, std::uint32_t hop,
                  std::uint32_t size, std::uint64_t *fallbacks) {
        constexpr int kMessages = 48;
        Engine eng;
        MeshConfig c = meshCfg();
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
        return cycleDigest(done);
    };
    // [seed][hop][size], in the loop order below, recorded from the
    // wormhole coroutine.
    constexpr std::uint64_t kPinned[4][3][3] = {
        {
            {0x45624d61fc8d48d4ull, 0x757416a11ffc816eull,
             0xf36da1842e3e9b15ull},
            {0xa8faa96979826f3full, 0xda4b87a0790f3d0full,
             0xc2310fbccca13cecull},
            {0x6c2fd310d1c13bd4ull, 0x2eca4e6e4891cc88ull,
             0xa87fb31f91081736ull},
        },
        {
            {0xee81002c0b0a00ffull, 0xd4de814740467594ull,
             0xe3e9e8c753861301ull},
            {0xa777cf2b47f31e2cull, 0x123adf903897e677ull,
             0x09a2d0086b47f8fcull},
            {0xea7f44e1b27713ccull, 0x855cee47bd0105ffull,
             0xb7551329599573acull},
        },
        {
            {0x3df648ecfe55bb7bull, 0xb6f9164abdd3417cull,
             0x980d159de57d4b2cull},
            {0x48bdc92049d72961ull, 0x510fdcb5b01c6279ull,
             0x27062fd71a7ceb4bull},
            {0xa15bb18cc9fc654bull, 0x4c36c36ae2bee9ffull,
             0xd4c9f4becf1aca54ull},
        },
        {
            {0x85943084a818d44eull, 0x16086c1ea64e9ea7ull,
             0xb4b775654187bdd4ull},
            {0x899f8ac2c6fb3e01ull, 0x076b8a9c94b7fc5dull,
             0xfd484aa2105fa650ull},
            {0x7a587686d30a49feull, 0x6df0761ae0d24877ull,
             0xe62f20b9e7a3d26aull},
        },
    };
    const std::uint64_t seeds[] = {0xF00Dull, 1ull, 2ull, 3ull};
    const std::uint32_t hops[] = {2u, 4u, 6u};
    // 1 flit, 5 flits, and a per-message mix of the two.
    const std::uint32_t sizes[] = {64u, 576u, 0u};
    std::uint64_t contended = 0;
    for (std::size_t i = 0; i < std::size(seeds); ++i) {
        for (std::size_t h = 0; h < std::size(hops); ++h) {
            for (std::size_t z = 0; z < std::size(sizes); ++z) {
                SCOPED_TRACE(::testing::Message()
                             << "seed " << seeds[i] << " hop " << hops[h]
                             << " bits " << sizes[z]);
                std::uint64_t fallbacks = 0;
                EXPECT_EQ(run(seeds[i], hops[h], sizes[z], &fallbacks),
                          kPinned[i][h][z]);
                contended += fallbacks;
            }
        }
    }
    EXPECT_GT(contended, 0u); // the storms did exercise held links
}

// ---- Frameless unicasts and tree multicast -------------------------------

/** Frames the calling thread's pool has handed out so far. */
std::uint64_t
framesMade()
{
    const auto &st = wisync::coro::framePool().stats();
    return st.pooledAllocs + st.fallbackAllocs;
}

Task<void>
sendAt(Engine &eng, Mesh &mesh, NodeId src, NodeId dst, std::uint32_t bits,
       Cycle *done)
{
    co_await mesh.send(src, dst, bits);
    *done = eng.now();
}

Task<void>
multicastAt(Engine &eng, Mesh &mesh, NodeId src,
            const std::vector<NodeId> &dsts, std::uint32_t bits, Cycle *done)
{
    co_await mesh.multicast(src, dsts, bits);
    *done = eng.now();
}

/** 1- and 5-flit unicasts, each alone on its route and each queued
 *  behind another head, on a warm engine: every root task is built
 *  before run(), and run() then makes no frame and no heap
 *  allocation. */
TEST(MeshFastpath, WarmUnicastsMakeNoFramesAndNoAllocations)
{
    Engine eng;
    const MeshConfig cfg = meshCfg();
    Mesh mesh(eng, cfg);
    Cycle done[6] = {};
    auto point = [&] {
        eng.reset();
        mesh.reset(cfg);
        // Disjoint routes, then two pairs sharing their first link.
        wisync::coro::spawnDetached(eng,
                                    sendAt(eng, mesh, 0, 63, 64, &done[0]));
        wisync::coro::spawnDetached(eng,
                                    sendAt(eng, mesh, 63, 0, 576, &done[1]));
        wisync::coro::spawnDetached(eng,
                                    sendAt(eng, mesh, 8, 15, 64, &done[2]));
        wisync::coro::spawnDetached(eng,
                                    sendAt(eng, mesh, 8, 14, 64, &done[3]));
        wisync::coro::spawnDetached(eng,
                                    sendAt(eng, mesh, 16, 23, 576, &done[4]));
        wisync::coro::spawnDetached(eng,
                                    sendAt(eng, mesh, 16, 22, 576, &done[5]));
    };
    point();
    ASSERT_TRUE(eng.run()); // warm-up: pools, buckets, link FIFOs
    point();
    const std::uint64_t frames = framesMade();
    const std::uint64_t heap = wisync::sim::heapAllocs();
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(framesMade() - frames, 0u);
    EXPECT_EQ(wisync::sim::heapAllocs() - heap, 0u);
    EXPECT_EQ(mesh.stats().fastpathHits.value(), 4u);
    EXPECT_EQ(mesh.stats().fastpathFallbacks.value(), 2u);
    EXPECT_EQ(done[0], mesh.zeroLoadLatency(0, 63, 64));
    EXPECT_EQ(done[1], mesh.zeroLoadLatency(63, 0, 576));
    EXPECT_EQ(done[2], mesh.zeroLoadLatency(8, 15, 64));
    EXPECT_GT(done[3], mesh.zeroLoadLatency(8, 14, 64));
    EXPECT_EQ(done[4], mesh.zeroLoadLatency(16, 23, 576));
    EXPECT_GT(done[5], mesh.zeroLoadLatency(16, 22, 576));
}

/** A 63-destination tree multicast whose first branch finds its link
 *  held by a unicast: on a warm engine the walk makes no frame and no
 *  heap allocation (its records are pooled by the mesh), and both
 *  messages complete at the cycles the coroutine tree walk gave. */
TEST(TreeMulticast, WarmFanOutThroughAHeldLinkMakesNoFramesAndNoAllocations)
{
    Engine eng;
    MeshConfig cfg = meshCfg();
    cfg.treeMulticast = true;
    Mesh mesh(eng, cfg);
    std::vector<NodeId> all;
    for (NodeId n = 1; n < 64; ++n)
        all.push_back(n);
    Cycle unicast = 0, tree = 0;
    auto point = [&] {
        eng.reset();
        mesh.reset(cfg);
        // The unicast takes node 0's east link first.
        wisync::coro::spawnDetached(eng,
                                    sendAt(eng, mesh, 0, 7, 576, &unicast));
        wisync::coro::spawnDetached(eng,
                                    multicastAt(eng, mesh, 0, all, 64, &tree));
    };
    point();
    ASSERT_TRUE(eng.run());
    point();
    const std::uint64_t frames = framesMade();
    const std::uint64_t heap = wisync::sim::heapAllocs();
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(framesMade() - frames, 0u);
    EXPECT_EQ(wisync::sim::heapAllocs() - heap, 0u);
    EXPECT_EQ(unicast, kTreeHeldUnicastDone);
    EXPECT_EQ(tree, kTreeHeldMulticastDone);
    EXPECT_EQ(eng.eventsExecuted(), kTreeHeldEvents);
}

/** The held-link point above, stopped halfway while its tree records
 *  are live, then reset and run again: the mesh recycles the records
 *  of the abandoned walk, and the rerun makes no frame and no heap
 *  allocation and completes at the pinned cycles. */
TEST(TreeMulticast, ResetMidWalkRecyclesTheLiveRecords)
{
    Engine eng;
    MeshConfig cfg = meshCfg();
    cfg.treeMulticast = true;
    Mesh mesh(eng, cfg);
    std::vector<NodeId> all;
    for (NodeId n = 1; n < 64; ++n)
        all.push_back(n);
    Cycle unicast = 0, tree = 0;
    auto point = [&] {
        eng.reset();
        mesh.reset(cfg);
        unicast = tree = 0;
        wisync::coro::spawnDetached(eng,
                                    sendAt(eng, mesh, 0, 7, 576, &unicast));
        wisync::coro::spawnDetached(eng,
                                    multicastAt(eng, mesh, 0, all, 64, &tree));
    };
    point();
    ASSERT_TRUE(eng.run()); // warm-up: every record the walk needs
    point();
    ASSERT_FALSE(eng.run(kTreeHeldMulticastDone / 2));
    ASSERT_EQ(tree, 0u) << "the walk must still be out";
    point();
    const std::uint64_t frames = framesMade();
    const std::uint64_t heap = wisync::sim::heapAllocs();
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(framesMade() - frames, 0u);
    EXPECT_EQ(wisync::sim::heapAllocs() - heap, 0u);
    EXPECT_EQ(unicast, kTreeHeldUnicastDone);
    EXPECT_EQ(tree, kTreeHeldMulticastDone);
    EXPECT_EQ(eng.eventsExecuted(), kTreeHeldEvents);
}

/** Random tree multicasts (random destination sets, sources among
 *  them or not, 1 and 5 flits) racing random unicasts: the completion
 *  cycle of every message and the number of engine events, pinned as
 *  one digest per cell, equal the coroutine tree walk's. */
TEST(TreeMulticast, RandomStormMatchesTheCoroutineWalk)
{
    auto run = [](std::uint64_t seed, std::uint32_t hop, std::uint32_t size) {
        constexpr int kMessages = 40;
        Engine eng;
        MeshConfig c = meshCfg();
        c.hopCycles = hop;
        c.treeMulticast = true;
        Mesh mesh(eng, c);
        std::vector<Cycle> done(kMessages, 0);
        std::vector<std::vector<NodeId>> dsts(kMessages);
        wisync::sim::Rng rng(seed);
        for (int t = 0; t < kMessages; ++t) {
            const NodeId src = static_cast<NodeId>(rng.below(64));
            const Cycle start = rng.below(60);
            const std::uint32_t bits =
                size != 0 ? size : rng.chance(0.5) ? 64 : 576;
            if (rng.chance(0.5)) {
                for (NodeId n = 0; n < 64; ++n)
                    if (rng.chance(0.25))
                        dsts[t].push_back(n);
                wisync::coro::spawnDetached(
                    eng, multicastAt(eng, mesh, src, dsts[t], bits, &done[t]),
                    start);
            } else {
                const NodeId dst = static_cast<NodeId>(rng.below(64));
                wisync::coro::spawnDetached(
                    eng, sendAt(eng, mesh, src, dst, bits, &done[t]), start);
            }
        }
        EXPECT_TRUE(eng.run());
        std::vector<Cycle> out = done;
        out.push_back(eng.eventsExecuted());
        return cycleDigest(out);
    };
    // [seed][hop][size], in the loop order below, recorded from the
    // coroutine tree walk (one Task per router and branch, each
    // router's branches joined in its frame).
    constexpr std::uint64_t kPinned[3][2][3] = {
        {
            {0x382cf5b85dfaeccaull, 0xa7aedb834f7ef889ull,
             0xe0d2ea64af08639cull},
            {0xa1618b62f898f454ull, 0x7d6b0a0bce676768ull,
             0x8b85dcfeb518e3c5ull},
        },
        {
            {0x879eb8d899285421ull, 0xc10e54c698b9af21ull,
             0x2bc5a0388fab4dcdull},
            {0xa05dd2edbd381363ull, 0xf5f0e4bd251ad23eull,
             0x9d22fda43d80f789ull},
        },
        {
            {0x15cba6ce2335113full, 0x20aff81bfd2d7402ull,
             0xa6b733833c024bf7ull},
            {0xeb8ebbd401fcc610ull, 0xba3116e3e0e87f35ull,
             0xb2b9fd9798c1eb0eull},
        },
    };
    const std::uint64_t seeds[] = {0xF00Dull, 1ull, 2ull};
    const std::uint32_t hops[] = {1u, 4u};
    const std::uint32_t sizes[] = {64u, 576u, 0u};
    for (std::size_t i = 0; i < std::size(seeds); ++i) {
        for (std::size_t h = 0; h < std::size(hops); ++h) {
            for (std::size_t z = 0; z < std::size(sizes); ++z) {
                SCOPED_TRACE(::testing::Message()
                             << "seed " << seeds[i] << " hop " << hops[h]
                             << " bits " << sizes[z]);
                EXPECT_EQ(run(seeds[i], hops[h], sizes[z]), kPinned[i][h][z]);
            }
        }
    }
}

// ---- Full figure-grid pins --------------------------------------------

struct GridPoint
{
    wisync::workloads::KernelResult result;
    std::uint64_t memFp = 0;
    std::uint64_t bmFp = 0;
    std::uint64_t cycles = 0;
};

GridPoint
runPoint(ConfigKind kind, MacKind mac, bool cas)
{
    auto cfg = MachineConfig::make(kind, 16);
    cfg.wireless.macKind = mac;
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

/** FNV-1a over every CounterKind::Simulated KernelResult field, as its
 *  canonical word (sim::toWord), in forEachCounter order. */
std::uint64_t
simulatedCounterDigest(const wisync::workloads::KernelResult &r)
{
    wisync::sim::Fnv1a f;
    wisync::workloads::forEachCounter(
        r, [&](const char *, const auto &member,
               wisync::workloads::CounterKind kind) {
            if (kind == wisync::workloads::CounterKind::Simulated)
                f.u64(wisync::sim::toWord(member));
        });
    return f.h;
}

/** One grid cell's outputs, recorded from the coroutine paths. */
struct GridPin
{
    ConfigKind kind;
    MacKind mac;
    bool cas;
    std::uint64_t cycles;
    std::uint64_t memFp;
    std::uint64_t bmFp;
    std::uint64_t counters;
};

constexpr GridPin kGridPins[] = {
    {ConfigKind::Baseline, MacKind::Brs, false, 7097, 0x8492bf064564a350ull,
     0x0000000000000000ull, 0xaddd0afff4011bd2ull},
    {ConfigKind::Baseline, MacKind::Brs, true, 30734, 0xd0cdb6c5fc278dbeull,
     0x0000000000000000ull, 0xb85b3b6562187e18ull},
    {ConfigKind::Baseline, MacKind::Token, false, 7097, 0x8492bf064564a350ull,
     0x0000000000000000ull, 0xaddd0afff4011bd2ull},
    {ConfigKind::Baseline, MacKind::Token, true, 30734, 0xd0cdb6c5fc278dbeull,
     0x0000000000000000ull, 0xb85b3b6562187e18ull},
    {ConfigKind::Baseline, MacKind::FuzzyToken, false, 7097, 0x8492bf064564a350ull,
     0x0000000000000000ull, 0xaddd0afff4011bd2ull},
    {ConfigKind::Baseline, MacKind::FuzzyToken, true, 30734, 0xd0cdb6c5fc278dbeull,
     0x0000000000000000ull, 0xb85b3b6562187e18ull},
    {ConfigKind::Baseline, MacKind::Adaptive, false, 7097, 0x8492bf064564a350ull,
     0x0000000000000000ull, 0xaddd0afff4011bd2ull},
    {ConfigKind::Baseline, MacKind::Adaptive, true, 30734, 0xd0cdb6c5fc278dbeull,
     0x0000000000000000ull, 0xb85b3b6562187e18ull},
    {ConfigKind::BaselinePlus, MacKind::Brs, false, 5764, 0xb94ff53a89fc0b47ull,
     0x0000000000000000ull, 0x48f6f8a83f09ae80ull},
    {ConfigKind::BaselinePlus, MacKind::Brs, true, 30788, 0x85441ea2834ee394ull,
     0x0000000000000000ull, 0x680eeb82fe984996ull},
    {ConfigKind::BaselinePlus, MacKind::Token, false, 5764, 0xb94ff53a89fc0b47ull,
     0x0000000000000000ull, 0x48f6f8a83f09ae80ull},
    {ConfigKind::BaselinePlus, MacKind::Token, true, 30788, 0x85441ea2834ee394ull,
     0x0000000000000000ull, 0x680eeb82fe984996ull},
    {ConfigKind::BaselinePlus, MacKind::FuzzyToken, false, 5764, 0xb94ff53a89fc0b47ull,
     0x0000000000000000ull, 0x48f6f8a83f09ae80ull},
    {ConfigKind::BaselinePlus, MacKind::FuzzyToken, true, 30788, 0x85441ea2834ee394ull,
     0x0000000000000000ull, 0x680eeb82fe984996ull},
    {ConfigKind::BaselinePlus, MacKind::Adaptive, false, 5764, 0xb94ff53a89fc0b47ull,
     0x0000000000000000ull, 0x48f6f8a83f09ae80ull},
    {ConfigKind::BaselinePlus, MacKind::Adaptive, true, 30788, 0x85441ea2834ee394ull,
     0x0000000000000000ull, 0x680eeb82fe984996ull},
    {ConfigKind::WiSyncNoT, MacKind::Brs, false, 4285, 0x5851f42d4c957f2dull,
     0x3d40ea4c6c8ab500ull, 0x718d79ea069f0300ull},
    {ConfigKind::WiSyncNoT, MacKind::Brs, true, 30544, 0x918e13ecdc90f10bull,
     0x43c523852ebd8930ull, 0xf2a1c8d89a1f277cull},
    {ConfigKind::WiSyncNoT, MacKind::Token, false, 3738, 0x5851f42d4c957f2dull,
     0x3d40ea4c6c8ab500ull, 0xf50926132884b98dull},
    {ConfigKind::WiSyncNoT, MacKind::Token, true, 30482, 0xf5dbad91da9b0260ull,
     0xeb0c598e95bca422ull, 0x761aa7ec00724fa7ull},
    {ConfigKind::WiSyncNoT, MacKind::FuzzyToken, false, 2710, 0x5851f42d4c957f2dull,
     0x3d40ea4c6c8ab500ull, 0xa6f97377f419612dull},
    {ConfigKind::WiSyncNoT, MacKind::FuzzyToken, true, 30553, 0x3830d818ebb9aa40ull,
     0xc2763ea5e1ef9f99ull, 0x374ce18fe24bb4abull},
    {ConfigKind::WiSyncNoT, MacKind::Adaptive, false, 3666, 0x5851f42d4c957f2dull,
     0x3d40ea4c6c8ab500ull, 0x13b717fbb58bc325ull},
    {ConfigKind::WiSyncNoT, MacKind::Adaptive, true, 30504, 0xce826000bc4aa294ull,
     0x8dc492ad1af1c12dull, 0x8d288ef73cb6a755ull},
    {ConfigKind::WiSync, MacKind::Brs, false, 2034, 0x5851f42d4c957f2dull,
     0x0334dafd2ae063c3ull, 0x8e2f76bce37073f1ull},
    {ConfigKind::WiSync, MacKind::Brs, true, 30544, 0x918e13ecdc90f10bull,
     0x43c523852ebd8930ull, 0xf2a1c8d89a1f277cull},
    {ConfigKind::WiSync, MacKind::Token, false, 1836, 0x5851f42d4c957f2dull,
     0x0334dafd2ae063c3ull, 0x16809a39df6d7772ull},
    {ConfigKind::WiSync, MacKind::Token, true, 30482, 0xf5dbad91da9b0260ull,
     0xeb0c598e95bca422ull, 0x761aa7ec00724fa7ull},
    {ConfigKind::WiSync, MacKind::FuzzyToken, false, 1824, 0x5851f42d4c957f2dull,
     0x0334dafd2ae063c3ull, 0x48f4757a4ef4df19ull},
    {ConfigKind::WiSync, MacKind::FuzzyToken, true, 30553, 0x3830d818ebb9aa40ull,
     0xc2763ea5e1ef9f99ull, 0x374ce18fe24bb4abull},
    {ConfigKind::WiSync, MacKind::Adaptive, false, 1852, 0x5851f42d4c957f2dull,
     0x0334dafd2ae063c3ull, 0x9117fa824ac4a70cull},
    {ConfigKind::WiSync, MacKind::Adaptive, true, 30504, 0xce826000bc4aa294ull,
     0x8dc492ad1af1c12dull, 0x8d288ef73cb6a755ull},
};

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

/** The frameless paths ("on") against the pinned outputs of the
 *  coroutine paths they replaced ("off"): simulated cycles, memory and
 *  BM fingerprints and every simulated counter, per cell. */
TEST_P(MeshFastpathGrid, OnVsOffBitIdenticalFingerprints)
{
    const auto [kind, mac] = GetParam();
    for (const bool cas : {false, true}) {
        SCOPED_TRACE(cas ? "cas-lifo" : "tightloop");
        const GridPin *pin = nullptr;
        for (const GridPin &p : kGridPins) {
            if (p.kind == kind && p.mac == mac && p.cas == cas)
                pin = &p;
        }
        ASSERT_NE(pin, nullptr);
        const auto got = runPoint(kind, mac, cas);
        EXPECT_EQ(got.cycles, pin->cycles);
        EXPECT_EQ(got.memFp, pin->memFp);
        EXPECT_EQ(got.bmFp, pin->bmFp);
        EXPECT_EQ(simulatedCounterDigest(got.result), pin->counters);
        // And the frameless paths must actually have carried traffic.
        EXPECT_GT(got.result.fastpathHits, 0u);
    }
}

} // namespace
