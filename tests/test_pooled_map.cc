/**
 * @file
 * Contract tests for sim::PooledMap, typed over its value type, the
 * directory entry (mem::DirTable): find never creates, values are
 * recycled across reset() without new allocations and come back
 * scrubbed, and value references survive rehashes.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "mem/mem_system.hh"
#include "sim/engine.hh"

// The value-type hooks live outside the anonymous namespace so that
// ctest names the typed tests after them ("...<DirEntryValues>").

/** How to build a map of one value type and dirty or check a value. */
struct DirEntryValues
{
    using Map = wisync::mem::DirTable;
    using Engine = wisync::sim::Engine;
    using DirEntry = wisync::mem::DirEntry;
    static constexpr std::uint32_t kSharerWords = 2;

    static Map make(Engine &eng) { return Map(eng, kSharerWords); }

    static void
    dirty(Engine &, DirEntry &e)
    {
        e.owner = 5;
        e.inL2 = true;
        e.sharers[0] = ~std::uint64_t{0};
        ASSERT_TRUE(e.busy.tryLock());
    }

    static void
    expectFresh(Engine &, DirEntry &e)
    {
        EXPECT_EQ(e.owner, wisync::sim::kNoNode);
        EXPECT_FALSE(e.inL2);
        ASSERT_EQ(e.sharers.size(), kSharerWords);
        for (const std::uint64_t w : e.sharers)
            EXPECT_EQ(w, 0u);
        EXPECT_FALSE(e.busy.locked());
    }

    /** Heap storage the value owns, which recycling must keep. */
    static const void *storage(DirEntry &e) { return e.sharers.data(); }
};

namespace {

using wisync::sim::Engine;

/** A key stream shaped like line addresses (64 B aligned). */
std::uint64_t
key(std::uint64_t i)
{
    return 0x1000'0000 + i * 64;
}

template <typename Values>
class PooledMap : public ::testing::Test
{};

using ValueTypes = ::testing::Types<DirEntryValues>;
TYPED_TEST_SUITE(PooledMap, ValueTypes);

TYPED_TEST(PooledMap, FindNeverCreates)
{
    Engine eng;
    auto map = TypeParam::make(eng);
    EXPECT_EQ(map.find(key(0)), nullptr);
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.stats().allocated, 0u);

    auto &v = map[key(0)];
    TypeParam::expectFresh(eng, v);
    EXPECT_EQ(map.size(), 1u);

    // Same key -> same value; another key -> another value.
    EXPECT_EQ(&map[key(0)], &v);
    EXPECT_EQ(map.find(key(0)), &v);
    EXPECT_EQ(map.find(key(1)), nullptr);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_NE(&map[key(1)], &v);
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map.stats().allocated, 2u);
}

TYPED_TEST(PooledMap, RecyclesAcrossResetWithoutAllocating)
{
    Engine eng;
    auto map = TypeParam::make(eng);
    constexpr std::uint64_t kKeys = 40;
    for (std::uint64_t i = 0; i < kKeys; ++i)
        TypeParam::dirty(eng, map[key(i)]);
    EXPECT_EQ(map.stats().allocated, kKeys);
    EXPECT_EQ(map.stats().recycled, 0u);

    eng.reset();
    map.reset();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.freeCount(), kKeys);
    EXPECT_EQ(map.find(key(0)), nullptr);

    // The next run touches a different key set: every value is served
    // from the free list and comes back scrubbed.
    for (std::uint64_t i = 0; i < kKeys; ++i)
        TypeParam::expectFresh(eng, map[key(1000 + i)]);
    EXPECT_EQ(map.stats().allocated, kKeys);
    EXPECT_EQ(map.stats().recycled, kKeys);
    EXPECT_EQ(map.freeCount(), 0u);
}

TYPED_TEST(PooledMap, ScrubsValuesOnReuseKeepingTheirStorage)
{
    Engine eng;
    auto map = TypeParam::make(eng);
    auto &v = map[key(7)];
    TypeParam::dirty(eng, v);
    const void *storage = TypeParam::storage(v);

    eng.reset();
    map.reset();
    // One free value, so the next acquisition recycles exactly it.
    auto &again = map[key(9)];
    EXPECT_EQ(&again, &v);
    EXPECT_EQ(TypeParam::storage(again), storage);
    TypeParam::expectFresh(eng, again);
}

TYPED_TEST(PooledMap, ReferencesSurviveRehash)
{
    Engine eng;
    auto map = TypeParam::make(eng);
    auto &first = map[key(0)];
    const std::size_t slots_before = map.slotCount();

    // Overflow the initial slot array several times over.
    for (std::uint64_t i = 1; i < 8 * slots_before; ++i)
        map[key(i)];
    EXPECT_GT(map.stats().rehashes, 1u);
    EXPECT_GE(map.slotCount(), 8 * slots_before);

    // The reference from before the rehashes still designates key 0.
    EXPECT_EQ(map.find(key(0)), &first);
    EXPECT_EQ(&map[key(0)], &first);
    EXPECT_EQ(map.size(), 8 * slots_before);
}

} // namespace
