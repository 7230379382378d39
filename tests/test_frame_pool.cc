/**
 * @file
 * Unit tests for the coroutine frame pool: size classing, free-list
 * reuse, oversized fallback, and frame recovery when engines are torn
 * down with live pooled frames (run under ASan/LSan in CI).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "coro/frame_pool.hh"
#include "coro/primitives.hh"
#include "coro/task.hh"
#include "sim/engine.hh"

namespace {

using wisync::coro::delay;
using wisync::coro::FramePool;
using wisync::coro::framePool;
using wisync::coro::spawnNow;
using wisync::coro::Task;
using wisync::sim::Engine;

TEST(FramePool, RoundTripsInterleavedSizeClasses)
{
    FramePool pool;
    const std::size_t sizes[] = {1,   17,  63,  64,   65,  100,
                                 256, 300, 511, 1000, 1500};
    std::vector<void *> ptrs;
    for (int round = 0; round < 3; ++round) {
        for (const auto sz : sizes) {
            void *p = pool.allocate(sz);
            ASSERT_NE(p, nullptr);
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                          FramePool::kAlign,
                      0u);
            std::memset(p, 0xAB, sz); // must be writable end to end
            ptrs.push_back(p);
        }
    }
    for (void *p : ptrs)
        pool.deallocate(p);
    EXPECT_EQ(pool.liveFrames(), 0u);
    EXPECT_EQ(pool.stats().pooledAllocs, 3 * std::size(sizes));
    EXPECT_EQ(pool.stats().pooledFrees, 3 * std::size(sizes));
    EXPECT_EQ(pool.stats().fallbackAllocs, 0u);
}

TEST(FramePool, FreeListReusesSameClassMemory)
{
    FramePool pool;
    void *a = pool.allocate(200);
    pool.deallocate(a);
    void *b = pool.allocate(190); // same 64-byte class as 200
    EXPECT_EQ(a, b);
    EXPECT_EQ(pool.stats().freelistReuses, 1u);
    void *c = pool.allocate(200); // class empty again -> fresh carve
    EXPECT_NE(b, c);
    EXPECT_EQ(pool.stats().freelistReuses, 1u);
    pool.deallocate(b);
    pool.deallocate(c);
}

TEST(FramePool, DistinctClassesDoNotShareFreeLists)
{
    FramePool pool;
    void *small = pool.allocate(40);
    pool.deallocate(small);
    void *big = pool.allocate(900);
    EXPECT_NE(small, big); // a 900-byte alloc must not reuse the 40er
    pool.deallocate(big);
    void *small2 = pool.allocate(40);
    EXPECT_EQ(small2, small);
    pool.deallocate(small2);
}

TEST(FramePool, OversizedAllocationsFallBackToMalloc)
{
    FramePool pool;
    const auto before = pool.stats();
    void *huge = pool.allocate(FramePool::kMaxPooled + 1);
    ASSERT_NE(huge, nullptr);
    std::memset(huge, 0xCD, FramePool::kMaxPooled + 1);
    EXPECT_EQ(pool.stats().fallbackAllocs, before.fallbackAllocs + 1);
    EXPECT_EQ(pool.stats().pooledAllocs, before.pooledAllocs);
    EXPECT_EQ(pool.liveFrames(), 1u);
    pool.deallocate(huge);
    EXPECT_EQ(pool.stats().fallbackFrees, before.fallbackFrees + 1);
    EXPECT_EQ(pool.liveFrames(), 0u);
}

TEST(FramePool, ChunksAreCarvedLazily)
{
    FramePool pool;
    EXPECT_EQ(pool.stats().chunks, 0u);
    void *p = pool.allocate(64);
    EXPECT_EQ(pool.stats().chunks, 1u);
    // A full chunk of this class fits many frames: no second chunk.
    std::vector<void *> more;
    for (int i = 0; i < 100; ++i)
        more.push_back(pool.allocate(64));
    EXPECT_EQ(pool.stats().chunks, 1u);
    pool.deallocate(p);
    for (void *q : more)
        pool.deallocate(q);
}

// ---- Pooled coroutine frames through the engine ----------------------

Task<void>
leaf(Engine &eng)
{
    co_await delay(eng, 1);
}

Task<void>
parent(Engine &eng, int width)
{
    for (int i = 0; i < width; ++i)
        co_await leaf(eng);
}

TEST(FramePool, TaskFramesComeFromThePool)
{
    const auto before = framePool().stats();
    {
        Engine eng;
        spawnNow(eng, [&eng]() -> Task<void> {
            co_await parent(eng, 50);
        });
        eng.run();
    }
    const auto after = framePool().stats();
    // Wrapper + outer + parent + 50 leaves, all pooled and all freed.
    EXPECT_GE(after.pooledAllocs - before.pooledAllocs, 52u);
    EXPECT_EQ(after.pooledAllocs - before.pooledAllocs,
              after.pooledFrees - before.pooledFrees);
    // Steady state reuses the free lists instead of carving.
    EXPECT_GE(after.freelistReuses - before.freelistReuses, 45u);
}

Task<void>
chain(Engine &eng, int depth)
{
    if (depth == 0)
        co_return;
    co_await delay(eng, 1);
    co_await chain(eng, depth - 1);
}

/** Once warm, a 1000-deep task chain must take every frame from the
 *  pool's free lists: model frames all fit the pooled size classes. */
TEST(FramePool, CoroutineChainServesFramesFromFreeLists)
{
    auto runChain = [] {
        Engine eng;
        wisync::coro::spawnDetached(eng, chain(eng, 1000));
        eng.run();
    };
    runChain(); // warm-up: carves the chain's frames once
    const auto before = framePool().stats();
    for (int i = 0; i < 3; ++i)
        runChain();
    const auto after = framePool().stats();
    const auto allocs = after.pooledAllocs - before.pooledAllocs;
    ASSERT_GE(allocs, 3000u);
    EXPECT_GE(static_cast<double>(after.freelistReuses -
                                  before.freelistReuses) /
                  static_cast<double>(allocs),
              0.9);
    EXPECT_EQ(after.fallbackAllocs, before.fallbackAllocs);
}

TEST(FramePool, EngineTeardownWithLiveFramesReturnsThemToThePool)
{
    const std::uint64_t live_before = framePool().liveFrames();
    {
        Engine eng;
        // Park a chain of frames deep in the future; destroy the
        // engine while they are all live. The detached-root registry
        // must destroy the whole chain (ASan/LSan verifies no leak,
        // the pool counter verifies frame recovery).
        spawnNow(eng, [&eng]() -> Task<void> {
            co_await delay(eng, 1'000'000);
            co_await parent(eng, 3);
        });
        spawnNow(eng, [&eng]() -> Task<void> {
            co_await delay(eng, 42);
        });
        eng.run(10); // leaves everything suspended mid-flight
        EXPECT_GT(framePool().liveFrames(), live_before);
    }
    EXPECT_EQ(framePool().liveFrames(), live_before);
}

TEST(FramePool, EngineResetWithLiveFramesReturnsThemToThePool)
{
    const std::uint64_t live_before = framePool().liveFrames();
    Engine eng;
    spawnNow(eng, [&eng]() -> Task<void> {
        co_await delay(eng, 1'000'000);
    });
    eng.run(10);
    EXPECT_GT(framePool().liveFrames(), live_before);
    eng.reset();
    EXPECT_EQ(framePool().liveFrames(), live_before);
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_EQ(eng.now(), 0u);

    // The reset engine is fully usable afterwards.
    bool ran = false;
    spawnNow(eng, [&eng, &ran]() -> Task<void> {
        co_await delay(eng, 5);
        ran = true;
    });
    eng.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(eng.now(), 5u);
}

TEST(FramePool, ThreadLocalPoolIsSharedAcrossEngines)
{
    // Two engines on the same thread recycle each other's frames.
    const auto before = framePool().stats();
    {
        Engine a;
        spawnNow(a, [&a]() -> Task<void> { co_await parent(a, 10); });
        a.run();
    }
    const auto mid = framePool().stats();
    {
        Engine b;
        spawnNow(b, [&b]() -> Task<void> { co_await parent(b, 10); });
        b.run();
    }
    const auto after = framePool().stats();
    // Second engine's frames come from the free lists the first
    // engine's teardown refilled: no new chunks.
    EXPECT_EQ(after.chunks, mid.chunks);
    EXPECT_GT(after.freelistReuses, mid.freelistReuses);
    EXPECT_EQ(after.pooledAllocs - before.pooledAllocs,
              after.pooledFrees - before.pooledFrees);
}

} // namespace
