/**
 * @file
 * Unit, integration, and property tests for the MOESI hierarchy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "coro/frame_pool.hh"
#include "coro/primitives.hh"
#include "mem/mem_system.hh"
#include "noc/mesh.hh"
#include "sim/engine.hh"
#include "sim/rng.hh"

namespace {

using wisync::coro::spawnNow;
using wisync::coro::Task;
using wisync::mem::CohState;
using wisync::mem::MemConfig;
using wisync::mem::Memory;
using wisync::mem::MemSystem;
using OpKind = wisync::mem::MemSystem::OpKind;
using wisync::noc::Mesh;
using wisync::noc::MeshConfig;
using wisync::sim::Addr;
using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::sim::NodeId;

/** A small chip: engine + mesh + memory + hierarchy. */
struct Chip
{
    explicit Chip(std::uint32_t nodes, bool tree = false)
        : mesh(engine, meshCfg(nodes, tree)),
          mem(engine, mesh, memory, nodes, MemConfig{})
    {}

    static MeshConfig
    meshCfg(std::uint32_t nodes, bool tree)
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

TEST(MemSystem, ColdLoadGoesToDram)
{
    Chip chip(16);
    Cycle done = 0;
    std::uint64_t val = 1;
    spawnNow(chip.engine, [&]() -> Task<void> {
        val = co_await chip.mem.load(0, 0x10000);
        done = chip.engine.now();
    });
    chip.engine.run();
    EXPECT_EQ(val, 0u);
    // Must include the 110-cycle DRAM round trip.
    EXPECT_GT(done, 110u);
    EXPECT_EQ(chip.mem.stats().dramFetches.value(), 1u);
    EXPECT_EQ(chip.mem.stats().l1Misses.value(), 1u);
}

TEST(MemSystem, SecondLoadHitsL1AtConfiguredLatency)
{
    Chip chip(16);
    Cycle first = 0, second = 0;
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.mem.load(0, 0x10000);
        first = chip.engine.now();
        co_await chip.mem.load(0, 0x10000);
        second = chip.engine.now();
    });
    chip.engine.run();
    EXPECT_EQ(second - first, 2u); // L1 RT
    EXPECT_EQ(chip.mem.stats().l1Hits.value(), 1u);
}

TEST(MemSystem, SoleReaderGetsExclusive)
{
    Chip chip(16);
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.mem.load(3, 0x20000);
    });
    chip.engine.run();
    EXPECT_EQ(chip.mem.l1State(3, 0x20000), CohState::Exclusive);
}

TEST(MemSystem, ExclusiveUpgradesToModifiedSilently)
{
    Chip chip(16);
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.mem.load(3, 0x20000);
        const auto misses = chip.mem.stats().l1Misses.value();
        co_await chip.mem.store(3, 0x20000, 42);
        // The store must not be a miss or an upgrade transaction.
        EXPECT_EQ(chip.mem.stats().l1Misses.value(), misses);
        EXPECT_EQ(chip.mem.stats().upgrades.value(), 0u);
    });
    chip.engine.run();
    EXPECT_EQ(chip.mem.l1State(3, 0x20000), CohState::Modified);
    EXPECT_EQ(chip.memory.read64(0x20000), 42u);
}

TEST(MemSystem, ReadAfterRemoteWriteSuppliesDirtyData)
{
    Chip chip(16);
    std::uint64_t seen = 0;
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.mem.store(0, 0x30000, 1234);
        seen = co_await chip.mem.load(5, 0x30000);
    });
    chip.engine.run();
    EXPECT_EQ(seen, 1234u);
    // MOESI: writer keeps the dirty line in Owned; reader is Shared.
    EXPECT_EQ(chip.mem.l1State(0, 0x30000), CohState::Owned);
    EXPECT_EQ(chip.mem.l1State(5, 0x30000), CohState::Shared);
}

TEST(MemSystem, WriteInvalidatesAllSharers)
{
    Chip chip(16);
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.mem.load(0, 0x40000);
        co_await chip.mem.load(1, 0x40000);
        co_await chip.mem.load(2, 0x40000);
        co_await chip.mem.store(3, 0x40000, 9);
    });
    chip.engine.run();
    EXPECT_EQ(chip.mem.l1State(0, 0x40000), CohState::Invalid);
    EXPECT_EQ(chip.mem.l1State(1, 0x40000), CohState::Invalid);
    EXPECT_EQ(chip.mem.l1State(2, 0x40000), CohState::Invalid);
    EXPECT_EQ(chip.mem.l1State(3, 0x40000), CohState::Modified);
    EXPECT_GE(chip.mem.stats().invalidations.value(), 3u);
}

/** The access kinds that write their word: each needs write permission. */
class MemSystemWrite : public ::testing::TestWithParam<OpKind>
{};

INSTANTIATE_TEST_SUITE_P(Kinds, MemSystemWrite,
                         ::testing::Values(OpKind::Store, OpKind::FetchAdd,
                                           OpKind::Swap, OpKind::Cas),
                         [](const auto &info) {
                             switch (info.param) {
                               case OpKind::Store:
                                 return "Store";
                               case OpKind::FetchAdd:
                                 return "FetchAdd";
                               case OpKind::Swap:
                                 return "Swap";
                               case OpKind::Cas:
                                 return "Cas";
                               case OpKind::Load:
                                 break;
                             }
                             return "Load";
                         });

TEST_P(MemSystemWrite, UpgradeFromSharedCountsAsUpgrade)
{
    // Every kind leaves 5 in the word, which starts at 0.
    Chip chip(16);
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.mem.load(0, 0x50000);
        co_await chip.mem.load(1, 0x50000); // both Shared now
        switch (GetParam()) {
          case OpKind::Store:
            co_await chip.mem.store(0, 0x50000, 5);
            break;
          case OpKind::FetchAdd:
            co_await chip.mem.fetchAdd(0, 0x50000, 5);
            break;
          case OpKind::Swap:
            co_await chip.mem.swap(0, 0x50000, 5);
            break;
          case OpKind::Cas:
            co_await chip.mem.cas(0, 0x50000, 0, 5);
            break;
          case OpKind::Load:
            break;
        }
    });
    chip.engine.run();
    EXPECT_EQ(chip.mem.stats().upgrades.value(), 1u);
    EXPECT_EQ(chip.mem.l1State(0, 0x50000), CohState::Modified);
    EXPECT_EQ(chip.mem.l1State(1, 0x50000), CohState::Invalid);
    EXPECT_EQ(chip.memory.read64(0x50000), 5u);
}

TEST(MemSystem, CasSemantics)
{
    Chip chip(16);
    spawnNow(chip.engine, [&]() -> Task<void> {
        auto r1 = co_await chip.mem.cas(0, 0x60000, 0, 10);
        EXPECT_TRUE(r1.success);
        EXPECT_EQ(r1.oldValue, 0u);
        auto r2 = co_await chip.mem.cas(1, 0x60000, 0, 20);
        EXPECT_FALSE(r2.success);
        EXPECT_EQ(r2.oldValue, 10u);
        auto r3 = co_await chip.mem.cas(1, 0x60000, 10, 20);
        EXPECT_TRUE(r3.success);
    });
    chip.engine.run();
    EXPECT_EQ(chip.memory.read64(0x60000), 20u);
}

TEST(MemSystem, FetchAddReturnsOldAndAccumulates)
{
    Chip chip(16);
    spawnNow(chip.engine, [&]() -> Task<void> {
        EXPECT_EQ(co_await chip.mem.fetchAdd(0, 0x70000, 5), 0u);
        EXPECT_EQ(co_await chip.mem.fetchAdd(1, 0x70000, 3), 5u);
        EXPECT_EQ(co_await chip.mem.fetchAdd(0, 0x70000, 1), 8u);
    });
    chip.engine.run();
    EXPECT_EQ(chip.memory.read64(0x70000), 9u);
}

TEST(MemSystem, TestAndSetReturnsPrevious)
{
    Chip chip(16);
    spawnNow(chip.engine, [&]() -> Task<void> {
        EXPECT_EQ(co_await chip.mem.testAndSet(0, 0x71000), 0u);
        EXPECT_EQ(co_await chip.mem.testAndSet(1, 0x71000), 1u);
    });
    chip.engine.run();
    EXPECT_EQ(chip.memory.read64(0x71000), 1u);
}

/** Property: concurrent fetchAdd from all nodes never loses updates. */
class FetchAddSweep : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(FetchAddSweep, NoLostUpdates)
{
    const std::uint32_t nodes = GetParam();
    Chip chip(nodes);
    constexpr int kIters = 20;
    const Addr counter = 0x80000;

    auto worker = [&](NodeId n) -> Task<void> {
        for (int i = 0; i < kIters; ++i)
            co_await chip.mem.fetchAdd(n, counter, 1);
    };
    for (NodeId n = 0; n < nodes; ++n)
        spawnNow(chip.engine, worker, n);
    ASSERT_TRUE(chip.engine.run(50'000'000));
    EXPECT_EQ(chip.memory.read64(counter),
              static_cast<std::uint64_t>(nodes) * kIters);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FetchAddSweep,
                         ::testing::Values(2u, 4u, 16u, 64u));

/** Property: concurrent CAS — exactly one winner per round. */
TEST(MemSystem, ConcurrentCasSingleWinnerPerRound)
{
    constexpr std::uint32_t kNodes = 16;
    Chip chip(kNodes);
    const Addr slot = 0x90000;
    int wins = 0;

    auto contender = [&](NodeId n) -> Task<void> {
        const auto r = co_await chip.mem.cas(n, slot, 0, n + 1);
        if (r.success)
            ++wins;
    };
    for (NodeId n = 0; n < kNodes; ++n)
        spawnNow(chip.engine, contender, n);
    chip.engine.run();
    EXPECT_EQ(wins, 1);
    const auto v = chip.memory.read64(slot);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, kNodes);
}

TEST(MemSystem, SpinUntilWakesOnWrite)
{
    Chip chip(16);
    const Addr flag = 0xA0000;
    Cycle woke_at = 0;
    std::uint64_t seen = 0;

    spawnNow(chip.engine, [&]() -> Task<void> {
        seen = co_await chip.mem.spinWhile(1, flag, 0);
        woke_at = chip.engine.now();
    });
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await wisync::coro::delay(chip.engine, 5000);
        co_await chip.mem.store(0, flag, 77);
    });
    chip.engine.run();
    EXPECT_EQ(seen, 77u);
    EXPECT_GT(woke_at, 5000u);
    // Event-driven spin: a handful of loads, not thousands of polls.
    EXPECT_LT(chip.mem.stats().loads.value(), 10u);
}

TEST(MemSystem, SpinUntilImmediateWhenPredicateHolds)
{
    Chip chip(16);
    const Addr flag = 0xA1000;
    std::uint64_t seen = 1;
    spawnNow(chip.engine, [&]() -> Task<void> {
        seen = co_await chip.mem.spinUntil(2, flag, 0);
    });
    chip.engine.run();
    EXPECT_EQ(seen, 0u);
}

TEST(MemSystem, InvalidationsWithoutSpinnersCreateNoWatchEvents)
{
    // Two nodes ping-pong stores on one line and nobody spins: each
    // store invalidates the other's copy and fires the node's watch
    // list, which must stay empty: firing creates nothing.
    Chip chip(16);
    const Addr line = 0xA2000;
    spawnNow(chip.engine, [&]() -> Task<void> {
        for (std::uint64_t i = 1; i <= 3; ++i) {
            co_await chip.mem.store(0, line, i);
            co_await chip.mem.store(1, line, i);
        }
    });
    chip.engine.run();
    EXPECT_GT(chip.mem.stats().invalidations.value(), 0u);
    for (NodeId n = 0; n < 16; ++n)
        EXPECT_EQ(chip.mem.armedWatches(n), 0u);
}

TEST(MemSystem, CapacityEvictionsWriteBackDirtyLines)
{
    Chip chip(16);
    // L1: 32KB 2-way, 64B lines -> 256 sets. Write 3 dirty lines that
    // map to the same set (stride = 256 * 64 = 16KB).
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.mem.store(0, 0x100000, 1);
        co_await chip.mem.store(0, 0x104000, 2);
        co_await chip.mem.store(0, 0x108000, 3);
    });
    chip.engine.run();
    EXPECT_EQ(chip.mem.stats().writebacks.value(), 1u);
    // All values remain correct regardless of timing.
    EXPECT_EQ(chip.memory.read64(0x100000), 1u);
    EXPECT_EQ(chip.memory.read64(0x104000), 2u);
    EXPECT_EQ(chip.memory.read64(0x108000), 3u);
}

TEST(MemSystem, DeterministicAcrossRuns)
{
    auto run = [] {
        Chip chip(16);
        auto worker = [&chip](NodeId n) -> Task<void> {
            for (int i = 0; i < 10; ++i) {
                co_await chip.mem.fetchAdd(n, 0xB0000, 1);
                co_await chip.mem.load(n, 0xB0000 + 64 * (n % 4));
            }
        };
        for (NodeId n = 0; n < 16; ++n)
            spawnNow(chip.engine, worker, n);
        chip.engine.run();
        return chip.engine.now();
    };
    EXPECT_EQ(run(), run());
}

TEST(MemSystem, TreeMulticastReducesInvalidationTime)
{
    // Many sharers, then one writer: Baseline+ (tree) should finish
    // the invalidation no later than Baseline (serial unicasts).
    auto run = [](bool tree) {
        Chip chip(64, tree);
        Cycle store_done = 0;
        auto readers = [&chip]() -> Task<void> {
            for (NodeId n = 0; n < 64; ++n)
                co_await chip.mem.load(n, 0xC0000);
        };
        auto writer = [&chip, &store_done]() -> Task<void> {
            co_await chip.mem.store(1, 0xC0000, 1);
            store_done = chip.engine.now();
        };
        Cycle readers_done = 0;
        spawnNow(chip.engine, [&]() -> Task<void> {
            co_await readers();
            readers_done = chip.engine.now();
            co_await writer();
        });
        chip.engine.run();
        return store_done - readers_done;
    };
    const Cycle serial = run(false);
    const Cycle treed = run(true);
    EXPECT_LE(treed, serial);
}

TEST(MemSystem, MissLatencyIsTracked)
{
    Chip chip(16);
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.mem.load(0, 0xD0000);
        co_await chip.mem.load(1, 0xD0000);
    });
    chip.engine.run();
    EXPECT_EQ(chip.mem.stats().missLatency.count(), 2u);
    EXPECT_GT(chip.mem.stats().missLatency.mean(), 0.0);
}

/**
 * Pins the current L2 model: the set index and the home interleave use
 * the same line-number bits, so a 64-core chip's bank reaches only 16
 * of its 1024 sets. Bank 0 therefore holds exactly 16 x 8 lines before
 * its first recall, not Table 1's 512 KB.
 */
TEST(MemSystem, TableOneBankOf64CoresHolds128LinesBeforeARecall)
{
    Chip chip(64);
    std::uint64_t recalls_at_128 = ~0ull;
    spawnNow(chip.engine, [&]() -> Task<void> {
        for (Addr k = 0; k <= 128; ++k) {
            if (k == 128)
                recalls_at_128 = chip.mem.stats().l2Recalls.value();
            co_await chip.mem.load(0, k * 64 * 64); // all homed at bank 0
        }
    });
    chip.engine.run();
    EXPECT_EQ(chip.mem.homeOf(128 * 64 * 64), 0u);
    EXPECT_EQ(chip.mem.stats().dramFetches.value(), 129u);
    EXPECT_EQ(recalls_at_128, 0u);
    EXPECT_EQ(chip.mem.stats().l2Recalls.value(), 1u);
}

TEST(MemSystem, HomeBankIsAddressInterleaved)
{
    Chip chip(16);
    EXPECT_EQ(chip.mem.homeOf(0), 0u);
    EXPECT_EQ(chip.mem.homeOf(64), 1u);
    EXPECT_EQ(chip.mem.homeOf(64 * 15), 15u);
    EXPECT_EQ(chip.mem.homeOf(64 * 16), 0u);

    Chip odd(12); // not a power of two: the modulo path
    EXPECT_EQ(odd.mem.homeOf(64 * 11), 11u);
    EXPECT_EQ(odd.mem.homeOf(64 * 12), 0u);
    EXPECT_EQ(odd.mem.homeOf(64 * 29), 5u);
}

/** Frames the calling thread's pool has handed out so far. */
std::uint64_t
framesMade()
{
    const auto &st = wisync::coro::framePool().stats();
    return st.pooledAllocs + st.fallbackAllocs;
}

Task<void>
loadOnce(MemSystem &mem, NodeId node, Addr addr)
{
    co_await mem.load(node, addr);
}

/** Frames per GetS miss: the transaction (fetchLine) is the access's
 *  one frame; mesh sends and the home's data leg add none. Only the
 *  DRAM fill of a cold line is a frame of its own. */
TEST(MemSystem, GetSMissServedFromL2MakesOneFrame)
{
    Chip chip(16);
    const Addr a = 0x10000;
    auto missFrames = [&](NodeId node) {
        wisync::coro::spawnDetached(chip.engine, loadOnce(chip.mem, node, a));
        const std::uint64_t before = framesMade();
        EXPECT_TRUE(chip.engine.run());
        return framesMade() - before;
    };
    EXPECT_EQ(missFrames(0), 2u); // fetchLine + the DRAM fill
    EXPECT_EQ(missFrames(1), 1u); // the Exclusive owner forwards
    EXPECT_EQ(missFrames(2), 1u); // the L2 supplies a shared line
    EXPECT_EQ(chip.mem.stats().l1Misses.value(), 3u);
    EXPECT_EQ(chip.mem.stats().dramFetches.value(), 1u);
    EXPECT_EQ(chip.mem.l1State(2, a), CohState::Shared);
}

// ---- Pipelined GetS fills ------------------------------------------

/** A line homed at node 1 of the 4x4 mesh (line number mod 16). */
constexpr Addr kPipelinedLine = 0x40040;

/**
 * Node 15 owns kPipelinedLine (Owned) and node 5 shares it; then node
 * 0, next to the home, reads it through the pipelined path: the home
 * releases the line and the data comes the long way from node 15.
 * With @p store_after, node 2 (also next to the home) writes the line
 * that many cycles after the read starts, so its invalidation reaches
 * node 0 while the read's data is still in flight.
 */
void
startPipelinedRead(Chip &chip, std::optional<Cycle> store_after)
{
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.mem.store(15, kPipelinedLine, 7);
        co_await chip.mem.load(5, kPipelinedLine);
    });
    chip.engine.run();
    ASSERT_EQ(chip.mem.l1State(15, kPipelinedLine), CohState::Owned);
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.mem.load(0, kPipelinedLine);
    });
    if (store_after) {
        spawnNow(chip.engine, [&, d = *store_after]() -> Task<void> {
            co_await wisync::coro::delay(chip.engine, d);
            co_await chip.mem.store(2, kPipelinedLine, 9);
        });
    }
}

TEST(MemSystem, PipelinedFillInstallsWhenNothingInvalidatesIt)
{
    Chip chip(16);
    startPipelinedRead(chip, std::nullopt);
    chip.engine.run(chip.engine.now() + 15);
    // The fill's record lives in the transaction's frame.
    EXPECT_EQ(chip.mem.armedWatches(0), 1u);
    chip.engine.run();
    EXPECT_EQ(chip.mem.armedWatches(0), 0u);
    EXPECT_EQ(chip.mem.l1State(0, kPipelinedLine), CohState::Shared);
}

TEST(MemSystem, PipelinedFillInvalidatedInFlightDoesNotInstall)
{
    Chip chip(16);
    startPipelinedRead(chip, Cycle{2});
    chip.engine.run();
    EXPECT_EQ(chip.mem.armedWatches(0), 0u);
    EXPECT_EQ(chip.mem.l1State(2, kPipelinedLine), CohState::Modified);
    // The store's invalidation beat the data to node 0: the late data
    // must not resurrect a copy the directory no longer tracks.
    EXPECT_EQ(chip.mem.l1State(0, kPipelinedLine), CohState::Invalid);
}

TEST(MemSystem, ResetDuringAPipelinedFillLeavesNoMarker)
{
    Chip chip(16);
    startPipelinedRead(chip, std::nullopt);
    chip.engine.run(chip.engine.now() + 15);
    ASSERT_EQ(chip.mem.armedWatches(0), 1u);
    // Machine::reset's order: frames die with the engine, then the
    // subsystems reset.
    chip.engine.reset();
    chip.mesh.reset(Chip::meshCfg(16, false));
    chip.memory.clear();
    chip.mem.reset(MemConfig{});
    EXPECT_EQ(chip.mem.armedWatches(0), 0u);

    // The reused chip races the same read and store as a fresh one.
    startPipelinedRead(chip, Cycle{2});
    chip.engine.run();
    Chip fresh(16);
    startPipelinedRead(fresh, Cycle{2});
    fresh.engine.run();
    EXPECT_EQ(chip.engine.now(), fresh.engine.now());
    EXPECT_EQ(chip.mem.l1State(0, kPipelinedLine), CohState::Invalid);
    EXPECT_EQ(chip.mem.l1State(2, kPipelinedLine), CohState::Modified);
}

/** sharerList and hasSharers walk the bitmap a word at a time; a
 *  bit-by-bit reference over random bitmaps of densities from empty to
 *  full, with each node excluded in turn and with nobody excluded
 *  (sim::kNoNode, and a node id past the chip). */
TEST(SharerBits, ListAndTestMatchABitByBitReference)
{
    wisync::sim::Rng rng(0x5EED);
    for (const std::uint32_t nodes : {64u, 100u, 256u}) {
        std::vector<std::uint64_t> bitmap((nodes + 63) / 64);
        for (int trial = 0; trial < 40; ++trial) {
            const double density = trial % 8 / 7.0;
            std::fill(bitmap.begin(), bitmap.end(), 0);
            for (NodeId n = 0; n < nodes; ++n)
                if (rng.chance(density))
                    bitmap[n / 64] |= std::uint64_t{1} << (n % 64);
            std::vector<NodeId> excludes = {wisync::sim::kNoNode};
            for (NodeId n = 0; n <= nodes; ++n)
                excludes.push_back(n);
            for (const NodeId exclude : excludes) {
                std::vector<NodeId> want;
                for (NodeId n = 0; n < nodes; ++n)
                    if (n != exclude && (bitmap[n / 64] >> (n % 64) & 1))
                        want.push_back(n);
                const auto got = wisync::mem::sharerList(bitmap, exclude);
                ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), want)
                    << nodes << " nodes, exclude " << exclude;
                ASSERT_EQ(wisync::mem::hasSharers(bitmap, exclude),
                          !want.empty())
                    << nodes << " nodes, exclude " << exclude;
            }
        }
    }
}

} // namespace
