/**
 * @file
 * Unit tests for the 2D-mesh NoC model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "coro/primitives.hh"
#include "noc/mesh.hh"
#include "sim/engine.hh"

namespace {

using wisync::coro::spawnNow;
using wisync::coro::Task;
using wisync::noc::Mesh;
using wisync::noc::MeshConfig;
using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::sim::NodeId;

MeshConfig
cfg64()
{
    MeshConfig c;
    c.numNodes = 64;
    return c;
}

TEST(Mesh, GeometryOf64Nodes)
{
    Engine eng;
    Mesh mesh(eng, cfg64());
    EXPECT_EQ(mesh.width(), 8u);
    EXPECT_EQ(mesh.hops(0, 0), 0u);
    EXPECT_EQ(mesh.hops(0, 7), 7u);   // across the top row
    EXPECT_EQ(mesh.hops(0, 63), 14u); // corner to corner
    EXPECT_EQ(mesh.hops(9, 18), 2u);  // (1,1) -> (2,2)
}

TEST(Mesh, HopsIsSymmetric)
{
    Engine eng;
    Mesh mesh(eng, cfg64());
    for (NodeId a = 0; a < 64; a += 7)
        for (NodeId b = 0; b < 64; b += 5)
            EXPECT_EQ(mesh.hops(a, b), mesh.hops(b, a));
}

TEST(Mesh, UnicastZeroLoadLatency)
{
    Engine eng;
    Mesh mesh(eng, cfg64());
    // 1 flit control message, 14 hops at 4 cycles/hop.
    Cycle done = 0;
    spawnNow(eng, [&]() -> Task<void> {
        co_await mesh.send(0, 63, 64);
        done = eng.now();
    });
    eng.run();
    EXPECT_EQ(done, 14u * 4u);
    EXPECT_EQ(mesh.zeroLoadLatency(0, 63, 64), 14u * 4u);
}

TEST(Mesh, MultiFlitMessagePaysSerializationOnce)
{
    Engine eng;
    Mesh mesh(eng, cfg64());
    // 576-bit line transfer = 5 flits: wormhole adds flits-1 cycles.
    Cycle done = 0;
    spawnNow(eng, [&]() -> Task<void> {
        co_await mesh.send(0, 63, 576);
        done = eng.now();
    });
    eng.run();
    EXPECT_EQ(done, 14u * 4u + 4u);
    EXPECT_EQ(mesh.zeroLoadLatency(0, 63, 576), 14u * 4u + 4u);
}

TEST(Mesh, LocalSendCostsOneCycle)
{
    Engine eng;
    Mesh mesh(eng, cfg64());
    Cycle done = 0;
    spawnNow(eng, [&]() -> Task<void> {
        co_await mesh.send(5, 5, 576);
        done = eng.now();
    });
    eng.run();
    EXPECT_EQ(done, 1u);
}

TEST(Mesh, SharedLinkSerializesMessages)
{
    Engine eng;
    Mesh mesh(eng, cfg64());
    // Two single-flit messages from node 0 both crossing link 0->1.
    std::vector<Cycle> done;
    auto sender = [&](NodeId dst) -> Task<void> {
        co_await mesh.send(0, dst, 64);
        done.push_back(eng.now());
    };
    spawnNow(eng, sender, NodeId{1});
    spawnNow(eng, sender, NodeId{2});
    eng.run();
    ASSERT_EQ(done.size(), 2u);
    // First: 4 cycles. Second waits 1 cycle (flit time) on link 0->1:
    // starts hop at 1, arrives 1+4+4.
    EXPECT_EQ(done[0], 4u);
    EXPECT_EQ(done[1], 9u);
}

TEST(Mesh, DisjointPathsDoNotInterfere)
{
    Engine eng;
    Mesh mesh(eng, cfg64());
    std::vector<Cycle> done;
    auto sender = [&](NodeId src, NodeId dst) -> Task<void> {
        co_await mesh.send(src, dst, 64);
        done.push_back(eng.now());
    };
    spawnNow(eng, sender, NodeId{0}, NodeId{1});
    spawnNow(eng, sender, NodeId{62}, NodeId{63});
    eng.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 4u);
    EXPECT_EQ(done[1], 4u);
}

TEST(Mesh, TreeMulticastUsesOneMessage)
{
    Engine eng;
    auto cfg = cfg64();
    cfg.treeMulticast = true;
    Mesh mesh(eng, cfg);
    Cycle done = 0;
    spawnNow(eng, [&]() -> Task<void> {
        std::vector<NodeId> dsts{1, 8, 9, 63};
        co_await mesh.multicast(0, dsts, 64);
        done = eng.now();
    });
    eng.run();
    // Single logical message; latency = farthest leaf at zero load.
    EXPECT_EQ(done, 56u);
    EXPECT_EQ(mesh.stats().messages.value(), 1u);
}

Task<void>
unicast(Mesh &mesh, NodeId src, NodeId dst)
{
    co_await mesh.send(src, dst, 64);
}

/** Baseline+'s tree against the plain Baseline pattern, one parallel
 *  unicast per destination: the unicasts queue on the source's links. */
TEST(Mesh, TreeMulticastFasterThanSerialForBigFanout)
{
    std::vector<NodeId> all;
    for (NodeId n = 1; n < 64; ++n)
        all.push_back(n);
    auto cfg = cfg64();
    cfg.treeMulticast = true;

    Engine eng;
    Mesh mesh(eng, cfg);
    Cycle tree = 0;
    spawnNow(eng, [&]() -> Task<void> {
        co_await mesh.multicast(0, all, 64);
        tree = eng.now();
    });
    eng.run();

    Engine eng2;
    Mesh mesh2(eng2, cfg);
    Cycle unicasts = 0;
    spawnNow(eng2, [&]() -> Task<void> {
        std::vector<Task<void>> legs;
        for (const NodeId d : all)
            legs.push_back(unicast(mesh2, 0, d));
        co_await wisync::coro::whenAll(eng2, std::move(legs));
        unicasts = eng2.now();
    });
    eng2.run();

    EXPECT_EQ(tree, 56u); // zero-load to the far corner
    EXPECT_LT(tree, unicasts);
    EXPECT_EQ(mesh.stats().messages.value(), 1u);
    EXPECT_EQ(mesh2.stats().messages.value(), all.size());
}

/** A one-flit tree multicast to its own source is delivered in the
 *  awaiting event: the walk starts nothing. */
TEST(Mesh, MulticastToSelfOnly)
{
    Engine eng;
    auto cfg = cfg64();
    cfg.treeMulticast = true;
    Mesh mesh(eng, cfg);
    Cycle done = 999;
    spawnNow(eng, [&]() -> Task<void> {
        std::vector<NodeId> dsts{3};
        co_await mesh.multicast(3, dsts, 64);
        done = eng.now();
    });
    eng.run();
    EXPECT_EQ(done, 0u);
    EXPECT_EQ(mesh.stats().multicasts.value(), 1u);
    EXPECT_EQ(eng.eventsExecuted(), 1u); // the spawn's start alone
}

TEST(Mesh, NonSquareNodeCountWorks)
{
    Engine eng;
    MeshConfig cfg;
    cfg.numNodes = 128; // 12x12 grid, last rows partially used
    Mesh mesh(eng, cfg);
    EXPECT_EQ(mesh.width(), 12u);
    Cycle done = 0;
    spawnNow(eng, [&]() -> Task<void> {
        co_await mesh.send(0, 127, 64);
        done = eng.now();
    });
    eng.run();
    EXPECT_EQ(done, static_cast<Cycle>(mesh.hops(0, 127)) * 4);
}

TEST(Mesh, StatsAccumulate)
{
    Engine eng;
    Mesh mesh(eng, cfg64());
    spawnNow(eng, [&]() -> Task<void> {
        co_await mesh.send(0, 1, 64);
        co_await mesh.send(0, 1, 576);
    });
    eng.run();
    EXPECT_EQ(mesh.stats().messages.value(), 2u);
    EXPECT_EQ(mesh.stats().flits.value(), 1u + 5u);
    EXPECT_GT(mesh.stats().latency.mean(), 0.0);
}

} // namespace
