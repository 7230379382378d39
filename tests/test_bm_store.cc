/**
 * @file
 * Unit tests for the replicated Broadcast Memory arrays.
 */

#include <gtest/gtest.h>

#include "bm/bm_store.hh"
#include "sim/engine.hh"

namespace {

using wisync::bm::BmStore;
using wisync::bm::kNoPid;
using wisync::sim::Engine;

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
    auto &w0 = bm.watch(0, 7);
    auto &w3 = bm.watch(3, 7);
    auto &other = bm.watch(1, 9);
    const auto g0 = w0.gen(), g3 = w3.gen(), go = other.gen();
    bm.writeAll(7, 1);
    EXPECT_GT(w0.gen(), g0);
    EXPECT_GT(w3.gen(), g3);
    EXPECT_EQ(other.gen(), go) << "unrelated word must not be raised";
}

} // namespace
