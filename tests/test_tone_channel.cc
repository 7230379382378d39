/**
 * @file
 * Unit tests for the Tone channel and AllocB/ActiveB tables.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hh"
#include "wireless/tone_channel.hh"

namespace {

using wisync::sim::BmAddr;
using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::sim::NodeId;
using wisync::wireless::ToneChannel;

/** Point @p tone's release handler at @p handler, which outlives it. */
template <typename F>
void
onRelease(ToneChannel &tone, F &handler)
{
    tone.setReleaseHandler(
        [](void *h, BmAddr a) { (*static_cast<F *>(h))(a); }, &handler);
}

std::vector<bool>
armedAll(std::uint32_t nodes)
{
    return std::vector<bool>(nodes, true);
}

TEST(ToneChannel, AllocatesUntilCapacity)
{
    Engine eng;
    ToneChannel tone(eng, 4, 2);
    EXPECT_TRUE(tone.alloc(0, armedAll(4)));
    EXPECT_TRUE(tone.alloc(8, armedAll(4)));
    EXPECT_FALSE(tone.alloc(16, armedAll(4))); // AllocB overflow
    EXPECT_EQ(tone.allocatedCount(), 2u);
    tone.dealloc(0);
    EXPECT_TRUE(tone.alloc(16, armedAll(4)));
}

TEST(ToneChannel, AnnouncementNeededOnlyWhenInactive)
{
    Engine eng;
    ToneChannel tone(eng, 4);
    tone.alloc(0, armedAll(4));
    EXPECT_TRUE(tone.needsAnnouncement(0));
    tone.activate(0);
    EXPECT_FALSE(tone.needsAnnouncement(0));
}

TEST(ToneChannel, ReleasesWhenAllArmedArrive)
{
    Engine eng;
    ToneChannel tone(eng, 4);
    std::vector<BmAddr> released;
    auto on_release = [&](BmAddr a) { released.push_back(a); };
    onRelease(tone, on_release);
    tone.alloc(0, armedAll(4));

    tone.activate(0);
    tone.arrive(0, 0);
    tone.arrive(0, 1);
    tone.arrive(0, 2);
    eng.run(100);
    EXPECT_TRUE(released.empty()) << "released before last arrival";
    tone.arrive(0, 3);
    eng.run(200);
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(released[0], 0u);
    EXPECT_FALSE(tone.isActive(0));
}

TEST(ToneChannel, RepeatedArrivalFromOneNodeCountsOnce)
{
    // The silence check counts nodes still jamming: a node that
    // arrives twice (once while the activation was in flight, once
    // after) must not stand in for a node that never arrived.
    Engine eng;
    ToneChannel tone(eng, 3);
    int released = 0;
    auto on_release = [&](BmAddr) { ++released; };
    onRelease(tone, on_release);
    tone.alloc(0, armedAll(3));
    tone.arrive(0, 0); // pending
    tone.activate(0);
    tone.arrive(0, 0);
    tone.arrive(0, 1);
    tone.arrive(0, 1);
    eng.run(100);
    EXPECT_EQ(released, 0) << "released with node 2 still jamming";
    tone.arrive(0, 2);
    eng.run(200);
    EXPECT_EQ(released, 1);
}

TEST(ToneChannel, ReleaseWithinOneSlotOfLastArrival)
{
    Engine eng;
    ToneChannel tone(eng, 4);
    Cycle released_at = 0;
    auto on_release = [&](BmAddr) { released_at = eng.now(); };
    onRelease(tone, on_release);
    tone.alloc(0, armedAll(4));
    tone.activate(0);
    for (NodeId n = 0; n < 4; ++n)
        tone.arrive(0, n);
    const Cycle last_arrival = eng.now();
    eng.run(100);
    // Single active barrier: every slot belongs to it.
    EXPECT_LE(released_at - last_arrival, 2u);
}

TEST(ToneChannel, UnarmedNodesDoNotBlockRelease)
{
    Engine eng;
    ToneChannel tone(eng, 4);
    int releases = 0;
    auto on_release = [&](BmAddr) { ++releases; };
    onRelease(tone, on_release);
    std::vector<bool> armed{true, false, true, false};
    tone.alloc(0, armed);
    tone.activate(0);
    tone.arrive(0, 0);
    tone.arrive(0, 2);
    eng.run(100);
    EXPECT_EQ(releases, 1);
}

TEST(ToneChannel, ArrivalBeforeActivationIsPending)
{
    // Cores that execute tone_st while the announcement is in flight
    // must count as arrived once the barrier activates.
    Engine eng;
    ToneChannel tone(eng, 2);
    int releases = 0;
    auto on_release = [&](BmAddr) { ++releases; };
    onRelease(tone, on_release);
    tone.alloc(0, armedAll(2));
    tone.arrive(0, 0); // pre-activation arrival
    tone.arrive(0, 1); // pre-activation arrival
    tone.activate(0);
    eng.run(100);
    EXPECT_EQ(releases, 1);
}

TEST(ToneChannel, RedundantActivationIsIdempotent)
{
    Engine eng;
    ToneChannel tone(eng, 2);
    int releases = 0;
    auto on_release = [&](BmAddr) { ++releases; };
    onRelease(tone, on_release);
    tone.alloc(0, armedAll(2));
    tone.activate(0);
    tone.activate(0); // several nodes thought they were first
    tone.arrive(0, 0);
    tone.arrive(0, 1);
    eng.run(100);
    EXPECT_EQ(releases, 1);
    EXPECT_EQ(tone.stats().activations.value(), 1u);
}

TEST(ToneChannel, BarrierIsReusableAfterRelease)
{
    Engine eng;
    ToneChannel tone(eng, 2);
    int releases = 0;
    auto on_release = [&](BmAddr) { ++releases; };
    onRelease(tone, on_release);
    tone.alloc(0, armedAll(2));
    for (int iter = 0; iter < 3; ++iter) {
        tone.activate(0);
        tone.arrive(0, 0);
        tone.arrive(0, 1);
        eng.run(eng.now() + 100);
    }
    EXPECT_EQ(releases, 3);
}

TEST(ToneChannel, ConcurrentBarriersShareSlotsRoundRobin)
{
    Engine eng;
    ToneChannel tone(eng, 4);
    std::vector<std::pair<BmAddr, Cycle>> released;
    auto on_release = [&](BmAddr a) {
        released.emplace_back(a, eng.now());
    };
    onRelease(tone, on_release);
    // Barrier A on nodes {0,1}; barrier B on nodes {2,3}.
    tone.alloc(0, std::vector<bool>{true, true, false, false});
    tone.alloc(8, std::vector<bool>{false, false, true, true});
    tone.activate(0);
    tone.activate(8);
    EXPECT_EQ(tone.activeCount(), 2u);
    tone.arrive(0, 0);
    tone.arrive(0, 1);
    tone.arrive(8, 2);
    tone.arrive(8, 3);
    eng.run(100);
    ASSERT_EQ(released.size(), 2u);
    // With 2 active barriers, detection takes at most 2 slots each.
    for (const auto &[addr, at] : released)
        EXPECT_LE(at, 4u) << "addr " << addr;
    EXPECT_EQ(tone.activeCount(), 0u);
}

TEST(ToneChannel, SlowerDetectionWithManyActiveBarriers)
{
    // With k active barriers a barrier owns every k-th slot, so the
    // silence-detection latency grows with k.
    Engine eng;
    ToneChannel tone(eng, 8, 8);
    std::vector<Cycle> released_at;
    auto on_release = [&](BmAddr) { released_at.push_back(eng.now()); };
    onRelease(tone, on_release);
    // 4 single-node barriers keep the channel multiplexed...
    for (std::uint32_t b = 0; b < 4; ++b) {
        std::vector<bool> armed(8, false);
        armed[b] = true;
        tone.alloc(b * 8, armed);
        tone.activate(b * 8);
    }
    // ...but never arrive except barrier 0's node.
    tone.arrive(0, 0);
    eng.run(100);
    ASSERT_EQ(released_at.size(), 1u);
    EXPECT_GE(released_at[0], 1u);
    EXPECT_LE(released_at[0], 5u); // <= #active slots + 1
    EXPECT_EQ(tone.activeCount(), 3u);
}

TEST(ToneChannel, TickerStopsWhenIdle)
{
    Engine eng;
    ToneChannel tone(eng, 2);
    auto on_release = [](BmAddr) {};
    onRelease(tone, on_release);
    tone.alloc(0, armedAll(2));
    tone.activate(0);
    tone.arrive(0, 0);
    tone.arrive(0, 1);
    EXPECT_TRUE(eng.run(10'000));
    // The engine drained: no perpetual per-cycle ticking.
    const Cycle end = eng.now();
    EXPECT_LT(end, 100u);
}

TEST(ToneChannel, ArmedQueryMatchesAllocation)
{
    Engine eng;
    ToneChannel tone(eng, 4);
    std::vector<bool> armed{true, false, true, false};
    tone.alloc(0, armed);
    EXPECT_TRUE(tone.isArmed(0, 0));
    EXPECT_FALSE(tone.isArmed(0, 1));
    EXPECT_TRUE(tone.isArmed(0, 2));
    EXPECT_FALSE(tone.isArmed(0, 3));
}

} // namespace
