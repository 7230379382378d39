/**
 * @file
 * Contract tests for the transaction-record kit (sim/record.hh):
 * RecordPool keeps every record at one address while it grows, reuses
 * records last-freed-first, scrubs and frees every record on reset()
 * and allocates nothing once warm; Step runs the same member of a
 * record as an engine event and as a (fn, ctx) completion.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/engine.hh"
#include "sim/heap_counter.hh"
#include "sim/record.hh"

namespace {

using wisync::sim::Engine;
using wisync::sim::RecordPool;
using wisync::sim::Step;

/** A record with a field fixed at construction and one per use. */
struct Rec
{
    explicit Rec(int o) : owner(o) {}

    int owner;
    std::uint64_t id = 0;
    int scrubs = 0;
    int steps = 0;
    /** Filler: a few records per deque chunk, not hundreds. */
    std::uint64_t pad[6] = {};

    void step() { ++steps; }
};

/** Well past one deque chunk (512 bytes) of 72-byte records. */
constexpr std::uint64_t kMany = 1000;

TEST(RecordPool, AddressesStayStableAsThePoolGrows)
{
    RecordPool<Rec> pool;
    std::vector<Rec *> made;
    for (std::uint64_t i = 0; i < kMany; ++i) {
        Rec &r = pool.alloc(7);
        r.id = i;
        made.push_back(&r);
    }
    EXPECT_EQ(pool.freeCount(), 0u);
    for (std::uint64_t i = 0; i < kMany; ++i) {
        EXPECT_EQ(made[i]->id, i);
        EXPECT_EQ(made[i]->owner, 7);
    }
}

TEST(RecordPool, ReusesTheRecordFreedLastFirst)
{
    RecordPool<Rec> pool;
    Rec &a = pool.alloc(1);
    Rec &b = pool.alloc(1);
    Rec &c = pool.alloc(1);
    a.id = 11;
    pool.free(a);
    pool.free(c);
    pool.free(b);
    EXPECT_EQ(pool.freeCount(), 3u);
    // A reused record is not constructed again: it keeps its fields.
    EXPECT_EQ(&pool.alloc(2), &b);
    EXPECT_EQ(&pool.alloc(2), &c);
    Rec &again = pool.alloc(2);
    EXPECT_EQ(&again, &a);
    EXPECT_EQ(again.owner, 1);
    EXPECT_EQ(again.id, 11u);
    // Only growth constructs, from the arguments.
    EXPECT_EQ(pool.alloc(2).owner, 2);
}

TEST(RecordPool, ResetScrubsEveryRecordOnceAndFreesThemAll)
{
    RecordPool<Rec> pool;
    std::vector<Rec *> made;
    for (int i = 0; i < 40; ++i)
        made.push_back(&pool.alloc(0));
    // Half of them free, half still live (an abandoned run).
    for (int i = 0; i < 40; i += 2)
        pool.free(*made[i]);
    pool.reset([](Rec &r) { ++r.scrubs; });
    for (const Rec *r : made)
        EXPECT_EQ(r->scrubs, 1);
    ASSERT_EQ(pool.freeCount(), made.size());
    // Every record is free, and the newest one comes back first.
    for (int i = 39; i >= 0; --i)
        EXPECT_EQ(&pool.alloc(0), made[i]);
    EXPECT_EQ(pool.freeCount(), 0u);
}

TEST(RecordPool, WarmCyclesMakeNoAllocations)
{
    RecordPool<Rec> pool;
    std::vector<Rec *> live;
    live.reserve(kMany);
    auto cycle = [&] {
        live.clear();
        for (std::uint64_t i = 0; i < kMany; ++i)
            live.push_back(&pool.alloc(3));
        for (std::uint64_t i = 0; i < kMany; i += 3)
            pool.free(*live[i]);
        // Every third record back again, from the free list.
        for (std::uint64_t i = 0; i < kMany; i += 3)
            pool.alloc(3);
        pool.reset([](Rec &r) { r.id = 0; });
    };
    cycle(); // warm-up: the records and the free list's capacity
    const std::uint64_t before = wisync::sim::heapAllocs();
    cycle();
    cycle();
    EXPECT_EQ(wisync::sim::heapAllocs(), before);
    EXPECT_EQ(pool.freeCount(), kMany);
}

TEST(RecordPool, StepRunsTheSameMemberAsAnEventAndAsACompletion)
{
    static_assert(sizeof(Step<&Rec::step>) == sizeof(void *));
    Engine eng;
    Rec r(0);
    eng.scheduleIn(3, Step<&Rec::step>{&r});
    EXPECT_EQ(r.steps, 0);
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(r.steps, 1);
    EXPECT_EQ(eng.now(), 3u);
    void (*const done)(void *) = &Step<&Rec::step>::call;
    done(&r);
    EXPECT_EQ(r.steps, 2);
}

} // namespace
