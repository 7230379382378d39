/**
 * @file
 * Unit tests for the replicated Broadcast Memory arrays.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bm/bm_store.hh"
#include "coro/primitives.hh"
#include "coro/task.hh"
#include "sim/engine.hh"

namespace {

using wisync::bm::BmStore;
using wisync::bm::kNoPid;
using wisync::coro::spawnNow;
using wisync::coro::Task;
using wisync::coro::Watch;
using wisync::sim::Engine;
using wisync::sim::NodeId;

TEST(BmStore, StartsZeroedAndConsistent)
{
    Engine eng;
    BmStore bm(eng, 8, 2048);
    EXPECT_EQ(bm.words(), 2048u);
    EXPECT_EQ(bm.nodes(), 8u);
    EXPECT_EQ(bm.read(0, 0), 0u);
    EXPECT_EQ(bm.read(7, 2047), 0u);
    EXPECT_TRUE(bm.replicasConsistent());
}

TEST(BmStore, WriteAllUpdatesEveryReplica)
{
    Engine eng;
    BmStore bm(eng, 8, 64);
    bm.writeAll(5, 0xABCD);
    for (std::uint32_t n = 0; n < 8; ++n)
        EXPECT_EQ(bm.read(n, 5), 0xABCDu);
    EXPECT_TRUE(bm.replicasConsistent());
}

TEST(BmStore, ToggleFlipsZeroAndNonZero)
{
    Engine eng;
    BmStore bm(eng, 4, 64);
    bm.toggleChip(0, 3);
    EXPECT_EQ(bm.read(0, 3), 1u);
    bm.toggleChip(0, 3);
    EXPECT_EQ(bm.read(2, 3), 0u);
    // Non-zero values toggle to zero.
    bm.writeAll(3, 77);
    bm.toggleChip(0, 3);
    EXPECT_EQ(bm.read(1, 3), 0u);
}

TEST(BmStore, PidTags)
{
    Engine eng;
    BmStore bm(eng, 4, 64);
    EXPECT_EQ(bm.tag(10), kNoPid);
    bm.setTag(10, 3);
    EXPECT_EQ(bm.tag(10), 3u);
    EXPECT_EQ(bm.tag(11), kNoPid);
}

TEST(BmStore, WatchRaisesOnWrite)
{
    Engine eng;
    BmStore bm(eng, 4, 64);
    Watch w0, w3, other;
    bm.arm(w0, 0, 7);
    bm.arm(w3, 3, 7);
    bm.arm(other, 1, 9);
    bm.writeAll(7, 1);
    EXPECT_TRUE(w0.fired());
    EXPECT_TRUE(w3.fired());
    EXPECT_FALSE(other.fired()) << "unrelated word must not be raised";
    EXPECT_EQ(eng.pendingEvents(), 0u) << "nobody was parked";
}

/** Park a coroutine on a watch of @p node on @p addr; it records
 *  @p node in @p woken when the word is written. */
void
spinOn(Engine &eng, BmStore &bm, NodeId node, std::uint32_t addr,
       std::vector<NodeId> &woken)
{
    spawnNow(eng, [&bm, &woken, node, addr]() -> Task<void> {
        Watch changed;
        bm.arm(changed, node, addr);
        co_await changed;
        woken.push_back(node);
    });
}

TEST(BmStore, UnwatchedWriteSchedulesNothing)
{
    Engine eng;
    BmStore bm(eng, 64, 64);
    std::vector<NodeId> woken;
    spinOn(eng, bm, 9, 7, woken);
    Watch idle; // armed, with no waiter
    bm.arm(idle, 2, 5);
    ASSERT_TRUE(eng.run());
    bm.writeAll(6, 1);
    EXPECT_EQ(eng.pendingEvents(), 0u);
    bm.writeAll(5, 1);
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_TRUE(idle.fired()) << "a record without a waiter still fires";
    EXPECT_TRUE(woken.empty());
}

TEST(BmStore, WatchersWakeInNodeOrder)
{
    Engine eng;
    BmStore bm(eng, 64, 64);
    std::vector<NodeId> woken;
    for (const NodeId n : {63u, 5u, 1u})
        spinOn(eng, bm, n, 3, woken);
    ASSERT_TRUE(eng.run());
    bm.writeAll(3, 1);
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(woken, (std::vector<NodeId>{1, 5, 63}));
    EXPECT_EQ(bm.armedWatches(), 0u);
}

TEST(BmStore, ChipWriteWakesOnlyThatChipsWatchersInNodeOrder)
{
    Engine eng;
    BmStore bm(eng, 64, 64, 2); // chip 0 = nodes 0..31
    std::vector<NodeId> woken;
    for (const NodeId n : {63u, 40u, 5u, 1u, 32u})
        spinOn(eng, bm, n, 3, woken);
    ASSERT_TRUE(eng.run());
    bm.writeChip(1, 3, 1);
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(woken, (std::vector<NodeId>{32, 40, 63}));
    bm.writeChip(0, 3, 1);
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(woken, (std::vector<NodeId>{32, 40, 63, 1, 5}));
}

TEST(BmStore, ResetForgetsWatchers)
{
    Engine eng;
    BmStore bm(eng, 8, 64);
    std::vector<NodeId> woken;
    spinOn(eng, bm, 1, 3, woken);
    ASSERT_TRUE(eng.run());
    EXPECT_EQ(bm.armedWatches(), 1u);
    // Machine::reset's order: the parked frame dies with the engine
    // (its record unlinks itself), then the store resets.
    eng.reset();
    bm.reset();
    EXPECT_EQ(bm.armedWatches(), 0u);
    Watch w;
    bm.arm(w, 2, 4);
    bm.writeAll(3, 1);
    EXPECT_FALSE(w.fired());
    EXPECT_EQ(eng.pendingEvents(), 0u);
    bm.writeAll(4, 1);
    EXPECT_TRUE(w.fired());
    EXPECT_TRUE(woken.empty());
}

} // namespace
