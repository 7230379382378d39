/**
 * @file
 * Routes on chips whose core count is not a square: a Send computes
 * its XY route once and then only follows its link pointer, so these
 * pin the completion cycle of every message of random storms on a
 * 12-node chip (width 4, three of its four rows populated) and a
 * 48-node chip (width 7, whose last router position has no core but
 * still carries routes that turn there), plus a Baseline+ tree
 * multicast storm on the 48-node chip. The pinned digests were
 * recorded from the per-hop route derivation the carried route
 * replaced.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "coro/primitives.hh"
#include "noc/mesh.hh"
#include "sim/engine.hh"
#include "sim/fnv1a.hh"
#include "sim/rng.hh"

namespace {

using wisync::coro::Task;
using wisync::noc::Mesh;
using wisync::noc::MeshConfig;
using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::sim::NodeId;

MeshConfig
meshOf(std::uint32_t nodes, bool tree)
{
    MeshConfig c;
    c.numNodes = nodes;
    c.treeMulticast = tree;
    return c;
}

/** FNV-1a over the completion cycles, then the engine's event count. */
std::uint64_t
digest(const std::vector<Cycle> &done, const Engine &eng)
{
    wisync::sim::Fnv1a f;
    for (const Cycle c : done)
        f.u64(c);
    f.u64(eng.eventsExecuted());
    return f.h;
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

/** 1 flit, 5 flits, and a per-message mix of the two. */
constexpr std::uint32_t kSizes[] = {64u, 576u, 0u};
constexpr std::uint64_t kSeeds[] = {0xF00Dull, 1ull, 2ull};

std::uint32_t
pickBits(wisync::sim::Rng &rng, std::uint32_t size)
{
    return size != 0 ? size : rng.chance(0.5) ? 64 : 576;
}

/** Every ordered pair of nodes, one message alone on the chip: the
 *  head crosses exactly hops(src, dst) links. */
TEST(MeshRoute, LoneMessagesTakeZeroLoadLatencyOnNonSquareChips)
{
    for (const std::uint32_t nodes : {12u, 48u}) {
        Engine eng;
        const MeshConfig cfg = meshOf(nodes, false);
        Mesh mesh(eng, cfg);
        for (NodeId src = 0; src < nodes; ++src) {
            for (NodeId dst = 0; dst < nodes; ++dst) {
                for (const std::uint32_t bits : {64u, 576u}) {
                    eng.reset();
                    mesh.reset(cfg);
                    Cycle done = 0;
                    wisync::coro::spawnDetached(
                        eng, sendAt(eng, mesh, src, dst, bits, &done));
                    ASSERT_TRUE(eng.run());
                    ASSERT_EQ(done, mesh.zeroLoadLatency(src, dst, bits))
                        << nodes << " nodes, " << src << " -> " << dst;
                }
            }
        }
        EXPECT_EQ(mesh.stats().fastpathFallbacks.value(), 0u);
    }
}

/** Saturating random unicasts on the two non-square chips. */
TEST(MeshRoute, RandomStormsOnNonSquareChipsArePinned)
{
    auto run = [](std::uint32_t nodes, std::uint64_t seed,
                  std::uint32_t size, std::uint64_t *fallbacks) {
        constexpr int kMessages = 64;
        Engine eng;
        Mesh mesh(eng, meshOf(nodes, false));
        std::vector<Cycle> done(kMessages, 0);
        wisync::sim::Rng rng(seed);
        for (int t = 0; t < kMessages; ++t) {
            const auto src = static_cast<NodeId>(rng.below(nodes));
            const auto dst = static_cast<NodeId>(rng.below(nodes));
            const Cycle start = rng.below(40);
            const std::uint32_t bits = pickBits(rng, size);
            wisync::coro::spawnDetached(
                eng, sendAt(eng, mesh, src, dst, bits, &done[t]), start);
        }
        EXPECT_TRUE(eng.run());
        *fallbacks = mesh.stats().fastpathFallbacks.value();
        return digest(done, eng);
    };
    // [chip][seed][size], in the loop order below.
    constexpr std::uint64_t kPinned[2][3][3] = {
        {
            {0x9a2f1d967fa68a5cull, 0xca507d6ea0584f9bull,
             0x5ccf30cb390ded4eull},
            {0x423498a2b1e1a55cull, 0x0fca47dfc0a974f1ull,
             0x14e4419b0fe12b9cull},
            {0x64875879358db3c7ull, 0xd9c3e940fd3f79a9ull,
             0xed845d5121c90d64ull},
        },
        {
            {0xbd4c143f64de5a21ull, 0x5ffec9224efe5f29ull,
             0x53cd88ecbe6fe57eull},
            {0x9a8ccde957035ebfull, 0x9f2b779849ade61full,
             0xe3d5d68d6174b52cull},
            {0xee6a25cc01f3812dull, 0xcf93c762e4268c8full,
             0xed784627746c5dd6ull},
        },
    };
    const std::uint32_t chips[] = {12u, 48u};
    for (std::size_t c = 0; c < std::size(chips); ++c) {
        std::uint64_t contended = 0;
        for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
            for (std::size_t z = 0; z < std::size(kSizes); ++z) {
                SCOPED_TRACE(::testing::Message()
                             << chips[c] << " nodes, seed " << kSeeds[i]
                             << ", bits " << kSizes[z]);
                std::uint64_t fallbacks = 0;
                EXPECT_EQ(run(chips[c], kSeeds[i], kSizes[z], &fallbacks),
                          kPinned[c][i][z]);
                contended += fallbacks;
            }
        }
        EXPECT_GT(contended, 0u); // the storms did exercise held links
    }
}

/** Baseline+ on the 48-node chip: random tree multicasts racing random
 *  unicasts over the same links. */
TEST(MeshRoute, TreeMulticastStormOn48NodesIsPinned)
{
    auto run = [](std::uint64_t seed, std::uint32_t size) {
        constexpr std::uint32_t kNodes = 48;
        constexpr int kMessages = 40;
        Engine eng;
        Mesh mesh(eng, meshOf(kNodes, true));
        std::vector<Cycle> done(kMessages, 0);
        std::vector<std::vector<NodeId>> dsts(kMessages);
        wisync::sim::Rng rng(seed);
        for (int t = 0; t < kMessages; ++t) {
            const auto src = static_cast<NodeId>(rng.below(kNodes));
            const Cycle start = rng.below(60);
            const std::uint32_t bits = pickBits(rng, size);
            if (rng.chance(0.5)) {
                for (NodeId n = 0; n < kNodes; ++n)
                    if (rng.chance(0.25))
                        dsts[t].push_back(n);
                wisync::coro::spawnDetached(
                    eng, multicastAt(eng, mesh, src, dsts[t], bits, &done[t]),
                    start);
            } else {
                const auto dst = static_cast<NodeId>(rng.below(kNodes));
                wisync::coro::spawnDetached(
                    eng, sendAt(eng, mesh, src, dst, bits, &done[t]), start);
            }
        }
        EXPECT_TRUE(eng.run());
        return digest(done, eng);
    };
    // [seed][size], in the loop order below.
    constexpr std::uint64_t kPinned[3][3] = {
        {0x8050dc9aba41b852ull, 0x6bf008fc5316d486ull,
         0x75783a1dfd6d336eull},
        {0xfbca9cf0989b3c0cull, 0x95e699e8e8902700ull,
         0x012575c925d5eaf8ull},
        {0x202ad295506fdc2eull, 0x230d2de7ae250c1eull,
         0x6f029abf1126309bull},
    };
    for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
        for (std::size_t z = 0; z < std::size(kSizes); ++z) {
            SCOPED_TRACE(::testing::Message() << "seed " << kSeeds[i]
                                              << ", bits " << kSizes[z]);
            EXPECT_EQ(run(kSeeds[i], kSizes[z]), kPinned[i][z]);
        }
    }
}

} // namespace
