/**
 * @file
 * Timing pins for the MOESI directory protocol. Seeded storms of
 * loads, stores, fetchAdd, swap and cas race over a few hot lines and
 * many cold ones, on a chip with a 1 KB L1 and 8 KB L2 banks, so the
 * run takes DRAM fills, dirty writebacks and L2 recalls besides the
 * probes, invalidations and pipelined fills of the hot lines. Each
 * cell pins an FNV-1a digest of every access's completion cycle and
 * value, the final memory fingerprint, the engine's event count and
 * every MemStats counter, on Baseline (one unicast invalidation per
 * sharer) and Baseline+ (tree multicast), at 16 and 64 nodes. The
 * constants were recorded from the coroutine directory transaction
 * (a fetchLine frame per miss, a frame per leg, whenAll joins).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "coro/primitives.hh"
#include "mem/mem_system.hh"
#include "noc/mesh.hh"
#include "sim/engine.hh"
#include "sim/fnv1a.hh"
#include "sim/rng.hh"

namespace {

using wisync::coro::Task;
using wisync::mem::MemConfig;
using wisync::mem::Memory;
using wisync::mem::MemSystem;
using wisync::noc::Mesh;
using wisync::noc::MeshConfig;
using wisync::sim::Addr;
using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::sim::NodeId;

/** Small caches: a few dozen cold lines overflow both levels. */
MemConfig
smallCaches()
{
    MemConfig c;
    c.l1SizeBytes = 1024;  // 8 sets x 2 ways
    c.l2BankSizeBytes = 8 * 1024;
    c.l2Assoc = 4;         // 32 sets, of which a bank stores 1 or 2
    return c;
}

struct Chip
{
    Chip(std::uint32_t nodes, bool tree)
        : mesh(engine, meshOf(nodes, tree)),
          mem(engine, mesh, memory, nodes, smallCaches())
    {}

    static MeshConfig
    meshOf(std::uint32_t nodes, bool tree)
    {
        MeshConfig c;
        c.numNodes = nodes;
        c.treeMulticast = tree;
        return c;
    }

    Engine engine;
    Mesh mesh;
    Memory memory;
    MemSystem mem;
};

constexpr std::uint32_t kOpsPerNode = 48;
constexpr Addr kHotBase = 0x100000;
constexpr Addr kColdBase = 0x800000;
constexpr std::uint64_t kHotLines = 3;
constexpr std::uint64_t kColdLines = 768;

/** One node's share of the storm: random accesses with random gaps,
 *  noting each one's completion cycle and value at @p out. */
Task<void>
stormThread(Chip &chip, NodeId node, std::uint64_t seed, Cycle *done,
            std::uint64_t *value)
{
    wisync::sim::Rng rng(seed);
    for (std::uint32_t i = 0; i < kOpsPerNode; ++i) {
        if (const Cycle gap = rng.below(6); gap != 0)
            co_await wisync::coro::delay(chip.engine, gap);
        const Addr addr =
            rng.chance(0.7)
                ? kHotBase + rng.below(kHotLines) * 64 + 8 * rng.below(2)
                : kColdBase + rng.below(kColdLines) * 64;
        const std::uint64_t arg = rng.below(4);
        std::uint64_t v = 0;
        switch (rng.below(5)) {
          case 0:
            v = co_await chip.mem.load(node, addr);
            break;
          case 1:
            co_await chip.mem.store(node, addr, node * 1000 + i);
            break;
          case 2:
            v = co_await chip.mem.fetchAdd(node, addr, arg + 1);
            break;
          case 3:
            v = co_await chip.mem.swap(node, addr, node + 1);
            break;
          default: {
            const auto r = co_await chip.mem.cas(node, addr, arg, node);
            v = r.oldValue * 2 + (r.success ? 1 : 0);
            break;
          }
        }
        done[i] = chip.engine.now();
        value[i] = v;
    }
}

/** What a storm leaves behind. */
struct Outcome
{
    std::uint64_t accesses; ///< digest of completion cycles and values
    std::uint64_t memory;   ///< Memory::fingerprint()
    std::uint64_t events;   ///< Engine::eventsExecuted()
    /** MemStats: loads, stores, rmws, l1Hits, l1Misses, upgrades,
     *  invalidations, writebacks, dramFetches, l2Recalls, fastpathHits,
     *  fastpathFallbacks, then missLatency's count, sum, min and max. */
    std::uint64_t stats[16];
};

Outcome
runStorm(std::uint32_t nodes, bool tree, std::uint64_t seed)
{
    Chip chip(nodes, tree);
    std::vector<Cycle> done(nodes * kOpsPerNode);
    std::vector<std::uint64_t> values(nodes * kOpsPerNode);
    for (NodeId n = 0; n < nodes; ++n)
        wisync::coro::spawnDetached(
            chip.engine,
            stormThread(chip, n, seed * 1000 + n, &done[n * kOpsPerNode],
                        &values[n * kOpsPerNode]));
    EXPECT_TRUE(chip.engine.run());

    wisync::sim::Fnv1a f;
    for (std::size_t i = 0; i < done.size(); ++i) {
        f.u64(done[i]);
        f.u64(values[i]);
    }
    const auto &s = chip.mem.stats();
    return Outcome{
        f.h,
        chip.memory.fingerprint(),
        chip.engine.eventsExecuted(),
        {s.loads.value(), s.stores.value(), s.rmws.value(),
         s.l1Hits.value(), s.l1Misses.value(), s.upgrades.value(),
         s.invalidations.value(), s.writebacks.value(),
         s.dramFetches.value(), s.l2Recalls.value(),
         s.fastpathHits.value(), s.fastpathFallbacks.value(),
         s.missLatency.count(),
         static_cast<std::uint64_t>(s.missLatency.sum()),
         static_cast<std::uint64_t>(s.missLatency.min()),
         static_cast<std::uint64_t>(s.missLatency.max())},
    };
}

void
expectPinned(const Outcome &got, const Outcome &pin)
{
    EXPECT_EQ(got.accesses, pin.accesses);
    EXPECT_EQ(got.memory, pin.memory);
    EXPECT_EQ(got.events, pin.events);
    for (std::size_t i = 0; i < std::size(pin.stats); ++i)
        EXPECT_EQ(got.stats[i], pin.stats[i]) << "MemStats word " << i;
    // The storm reaches every path it is meant to pin.
    EXPECT_GT(got.stats[5], 0u); // upgrades
    EXPECT_GT(got.stats[7], 0u); // writebacks
    EXPECT_GT(got.stats[8], 0u); // DRAM fills
    EXPECT_GT(got.stats[9], 0u); // L2 recalls
}

TEST(CoherencePins, BaselineStormOn16Nodes)
{
    expectPinned(runStorm(16, false, 1),
                 Outcome{0x75f8e5b63ca9bf79ull, 0xa0d61e0d5a433eecull, 11818,
                         {150, 162, 456, 101, 646, 21, 438, 44, 217, 97, 101,
                          667, 667, 82264, 28, 329}});
}

TEST(CoherencePins, BaselinePlusStormOn16Nodes)
{
    expectPinned(runStorm(16, true, 2),
                 Outcome{0x8d38100778afecc4ull, 0x00aa745e6028d243ull, 12194,
                         {154, 157, 457, 103, 642, 23, 448, 33, 205, 82, 103,
                          665, 665, 83625, 8, 335}});
}

TEST(CoherencePins, BaselineStormOn64Nodes)
{
    expectPinned(runStorm(64, false, 3),
                 Outcome{0xf69879c441185722ull, 0x2ab0a7519be9e4d6ull, 75838,
                         {603, 626, 1843, 420, 2600, 52, 1886, 88, 698, 443, 420,
                          2652, 2652, 1989161, 18, 2862}});
}

TEST(CoherencePins, BaselinePlusStormOn64Nodes)
{
    expectPinned(runStorm(64, true, 4),
                 Outcome{0xc018c5a5636eaea7ull, 0xfde3a3b956e779aeull, 79403,
                         {642, 644, 1786, 453, 2549, 70, 1852, 77, 710, 456, 453,
                          2619, 2619, 1993135, 26, 3265}});
}

} // namespace
