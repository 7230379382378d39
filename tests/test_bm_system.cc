/**
 * @file
 * Unit, integration, and property tests for the BM controller:
 * store broadcast ordering, RMW/AFB semantics, bulk transfers, tone
 * barriers, PID protection.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bm/bm_system.hh"
#include "core/machine.hh"
#include "coro/primitives.hh"
#include "sim/engine.hh"
#include "sim/heap_counter.hh"
#include "sim/rng.hh"
#include "wireless/mac/mac_kind.hh"

namespace {

using wisync::bm::BmConfig;
using wisync::bm::BmSystem;
using wisync::bm::ProtectionFault;
using wisync::bm::RmwOp;
using wisync::coro::delay;
using wisync::coro::spawnNow;
using wisync::coro::Task;
using wisync::sim::BmAddr;
using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::sim::NodeId;
using wisync::sim::Pid;
using wisync::sim::Rng;
using wisync::wireless::WirelessConfig;

constexpr Pid kPid = 1;

struct BmChip
{
    explicit BmChip(std::uint32_t nodes, bool tone = true)
        : bm(engine, nodes, BmConfig{}, WirelessConfig{}, Rng(99), tone)
    {
        // Pre-tag a region for the test program (bypasses the
        // allocation broadcast for unit-level tests).
        for (BmAddr a = 0; a < 128; ++a)
            bm.storeArray().setTag(a, kPid);
    }

    Engine engine;
    BmSystem bm;
};

TEST(BmSystem, LoadDefaultsToZeroAtBmLatency)
{
    BmChip chip(4);
    Cycle done = 0;
    std::uint64_t v = 1;
    spawnNow(chip.engine, [&]() -> Task<void> {
        v = co_await chip.bm.load(0, kPid, 5);
        done = chip.engine.now();
    });
    chip.engine.run();
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(done, 2u); // BM RT
}

TEST(BmSystem, StoreUpdatesAllReplicasAfterBroadcast)
{
    BmChip chip(4);
    Cycle done = 0;
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.bm.store(0, kPid, 5, 42);
        done = chip.engine.now();
    });
    chip.engine.run();
    // 5-cycle wireless transfer + 2-cycle local BM write.
    EXPECT_EQ(done, 7u);
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(chip.bm.storeArray().read(n, 5), 42u);
    EXPECT_TRUE(chip.bm.storeArray().replicasConsistent());
}

TEST(BmSystem, RemoteReadSeesValueAfterDelivery)
{
    BmChip chip(4);
    std::uint64_t remote = 0;
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.bm.store(0, kPid, 9, 1234);
    });
    spawnNow(chip.engine, [&]() -> Task<void> {
        remote = co_await chip.bm.spinWhile(3, kPid, 9, 0);
    });
    chip.engine.run();
    EXPECT_EQ(remote, 1234u);
}

TEST(BmSystem, BulkStoreMovesFourWordsInOneMessage)
{
    BmChip chip(4);
    Cycle done = 0;
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.bm.bulkStore(0, kPid, 16, {1, 2, 3, 4});
        done = chip.engine.now();
    });
    chip.engine.run();
    // 15-cycle bulk transfer + 2-cycle BM write.
    EXPECT_EQ(done, 17u);
    EXPECT_EQ(chip.bm.dataChannel().stats().bulkMessages.value(), 1u);
    for (NodeId n = 0; n < 4; ++n)
        for (std::uint32_t i = 0; i < 4; ++i)
            EXPECT_EQ(chip.bm.storeArray().read(n, 16 + i), i + 1);
}

TEST(BmSystem, BulkLoadReturnsFourWords)
{
    BmChip chip(4);
    std::array<std::uint64_t, 4> got{};
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.bm.bulkStore(0, kPid, 20, {9, 8, 7, 6});
        got = co_await chip.bm.bulkLoad(2, kPid, 20);
    });
    chip.engine.run();
    EXPECT_EQ(got, (std::array<std::uint64_t, 4>{9, 8, 7, 6}));
}

TEST(BmSystem, FetchAddSucceedsWithoutContention)
{
    BmChip chip(4);
    spawnNow(chip.engine, [&]() -> Task<void> {
        const auto r = co_await chip.bm.rmw(0, kPid, 3, RmwOp::FetchAdd, 5);
        EXPECT_FALSE(r.atomicityFailed);
        EXPECT_EQ(r.oldValue, 0u);
    });
    chip.engine.run();
    EXPECT_EQ(chip.bm.storeArray().read(1, 3), 5u);
}

/**
 * A BM write raises AFB exactly on the other nodes' pending RMWs whose
 * word it covers: node 0's bulk store over words 16-19 holds the
 * channel while three RMWs wait for it, armed.
 */
TEST(BmSystem, StoreRaisesAfbOnlyOnOverlappingRmwsOfOtherNodes)
{
    BmChip chip(4);
    wisync::bm::RmwResult other{}, own{}, apart{};
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.bm.bulkStore(0, kPid, 16, {1, 2, 3, 4});
    });
    spawnNow(chip.engine, [&]() -> Task<void> {
        other = co_await chip.bm.rmw(1, kPid, 18, RmwOp::FetchAdd, 1);
    });
    spawnNow(chip.engine, [&]() -> Task<void> {
        own = co_await chip.bm.rmw(0, kPid, 17, RmwOp::FetchAdd, 1);
    });
    spawnNow(chip.engine, [&]() -> Task<void> {
        apart = co_await chip.bm.rmw(2, kPid, 40, RmwOp::FetchAdd, 1);
    });
    chip.engine.run();
    EXPECT_TRUE(other.atomicityFailed);
    EXPECT_FALSE(own.atomicityFailed);
    EXPECT_FALSE(apart.atomicityFailed);
    EXPECT_EQ(chip.bm.stats().afbFailures.value(), 1u);
    EXPECT_EQ(chip.bm.storeArray().read(3, 18), 3u);
    EXPECT_EQ(chip.bm.storeArray().read(3, 40), 1u);
}

TEST(BmSystem, AfbSetWhenRemoteStoreIntervenes)
{
    // Node 1's RMW reads the word, then node 0's store lands before
    // node 1 reaches the channel -> AFB must abort node 1's write.
    BmChip chip(4);
    int afb_failures = 0;
    // Node 0: plain store that will deliver at cycle ~5.
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.bm.store(0, kPid, 7, 100);
    });
    // Node 1: RMW on the same word, started so its read (2 cycles) +
    // modify (1 cycle) overlaps node 0's in-flight broadcast; its
    // channel attempt then waits for the busy channel and by the time
    // it transmits, the incoming store has set AFB.
    spawnNow(chip.engine, [&]() -> Task<void> {
        const auto r = co_await chip.bm.rmw(1, kPid, 7, RmwOp::FetchAdd, 1);
        if (r.atomicityFailed)
            ++afb_failures;
    });
    chip.engine.run();
    EXPECT_EQ(afb_failures, 1);
    EXPECT_EQ(chip.bm.stats().afbFailures.value(), 1u);
    // The aborted RMW must not have written: value is node 0's.
    EXPECT_EQ(chip.bm.storeArray().read(2, 7), 100u);
}

TEST(BmSystem, RetryLoopsAlwaysCommitExactlyOnce)
{
    // Property: N nodes x K fetch&add(1) retries == N*K despite AFB
    // aborts.
    constexpr std::uint32_t kNodes = 16;
    constexpr int kIters = 10;
    BmChip chip(kNodes);
    auto worker = [&](NodeId n) -> Task<void> {
        for (int i = 0; i < kIters; ++i)
            co_await chip.bm.rmwRetry(n, kPid, 0, RmwOp::FetchAdd, 1);
    };
    for (NodeId n = 0; n < kNodes; ++n)
        spawnNow(chip.engine, worker, n);
    ASSERT_TRUE(chip.engine.run(10'000'000));
    EXPECT_EQ(chip.bm.storeArray().read(0, 0),
              static_cast<std::uint64_t>(kNodes) * kIters);
    EXPECT_TRUE(chip.bm.storeArray().replicasConsistent());
}

TEST(BmSystem, CasComparisonFailureSkipsBroadcast)
{
    BmChip chip(4);
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.bm.store(0, kPid, 11, 5);
        const auto msgs = chip.bm.dataChannel().stats().messages.value();
        const auto r = co_await chip.bm.rmw(1, kPid, 11, RmwOp::Cas, 99, 1);
        EXPECT_FALSE(r.compared);
        EXPECT_FALSE(r.atomicityFailed);
        EXPECT_EQ(r.oldValue, 5u);
        // No wireless message for a failed comparison.
        EXPECT_EQ(chip.bm.dataChannel().stats().messages.value(), msgs);
    });
    chip.engine.run();
    EXPECT_EQ(chip.bm.storeArray().read(0, 11), 5u);
}

TEST(BmSystem, CasSuccess)
{
    BmChip chip(4);
    spawnNow(chip.engine, [&]() -> Task<void> {
        const auto r = co_await chip.bm.rmw(2, kPid, 12, RmwOp::Cas, 0, 77);
        EXPECT_TRUE(r.succeeded());
    });
    chip.engine.run();
    EXPECT_EQ(chip.bm.storeArray().read(0, 12), 77u);
}

TEST(BmSystem, StoresHaveChipWideTotalOrder)
{
    // All nodes spam stores to distinct words; delivery instants must
    // be strictly ordered and replicas consistent throughout.
    constexpr std::uint32_t kNodes = 8;
    BmChip chip(kNodes);
    auto worker = [&](NodeId n) -> Task<void> {
        for (int i = 0; i < 8; ++i)
            co_await chip.bm.store(n, kPid, n, i + 1);
    };
    for (NodeId n = 0; n < kNodes; ++n)
        spawnNow(chip.engine, worker, n);
    ASSERT_TRUE(chip.engine.run(1'000'000));
    EXPECT_TRUE(chip.bm.storeArray().replicasConsistent());
    for (NodeId n = 0; n < kNodes; ++n)
        EXPECT_EQ(chip.bm.storeArray().read(0, n), 8u);
}

TEST(BmSystem, ProtectionFaultOnWrongPid)
{
    BmChip chip(4);
    bool faulted = false;
    spawnNow(chip.engine, [&]() -> Task<void> {
        try {
            co_await chip.bm.load(0, /*pid=*/9, 5);
        } catch (const ProtectionFault &f) {
            faulted = true;
            EXPECT_EQ(f.addr, 5u);
            EXPECT_EQ(f.pid, 9u);
        }
    });
    chip.engine.run();
    EXPECT_TRUE(faulted);
    EXPECT_EQ(chip.bm.stats().protectionFaults.value(), 1u);
}

TEST(BmSystem, ProtectionFaultOnUntaggedEntry)
{
    BmChip chip(4);
    bool faulted = false;
    spawnNow(chip.engine, [&]() -> Task<void> {
        try {
            co_await chip.bm.store(0, kPid, 200, 1); // beyond tagged 128
        } catch (const ProtectionFault &) {
            faulted = true;
        }
    });
    chip.engine.run();
    EXPECT_TRUE(faulted);
}

TEST(BmSystem, AllocationBroadcastTagsEntries)
{
    BmChip chip(4);
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.bm.allocEntries(0, /*pid=*/7, 300, 4);
        // Now PID 7 can use the entries...
        co_await chip.bm.store(1, 7, 300, 5);
        // ...and PID 1 cannot.
        bool faulted = false;
        try {
            co_await chip.bm.load(2, kPid, 300);
        } catch (const ProtectionFault &) {
            faulted = true;
        }
        EXPECT_TRUE(faulted);
        co_await chip.bm.deallocEntries(0, 300, 4);
    });
    chip.engine.run();
    EXPECT_EQ(chip.bm.storeArray().tag(300), wisync::bm::kNoPid);
}

TEST(BmSystem, ToneBarrierReleasesAllNodes)
{
    constexpr std::uint32_t kNodes = 8;
    BmChip chip(kNodes);
    const BmAddr bar = 32;
    ASSERT_TRUE(
        chip.bm.allocToneBarrier(bar, std::vector<bool>(kNodes, true)));

    int released = 0;
    auto worker = [&](NodeId n) -> Task<void> {
        // Sense-reversing tone barrier (Fig. 4(c)): sense becomes 1.
        co_await delay(chip.engine, n * 3); // staggered arrivals
        co_await chip.bm.toneStore(n, kPid, bar);
        co_await chip.bm.spinUntil(n, kPid, bar, 1);
        ++released;
    };
    for (NodeId n = 0; n < kNodes; ++n)
        spawnNow(chip.engine, worker, n);
    ASSERT_TRUE(chip.engine.run(1'000'000));
    EXPECT_EQ(released, static_cast<int>(kNodes));
    EXPECT_EQ(chip.bm.toneChannel()->stats().releases.value(), 1u);
}

TEST(BmSystem, ToneBarrierIsReusableWithSenseReversal)
{
    constexpr std::uint32_t kNodes = 4;
    BmChip chip(kNodes);
    const BmAddr bar = 40;
    ASSERT_TRUE(
        chip.bm.allocToneBarrier(bar, std::vector<bool>(kNodes, true)));
    constexpr int kIters = 5;
    std::vector<int> progress(kNodes, 0);

    auto worker = [&](NodeId n) -> Task<void> {
        std::uint64_t sense = 0;
        for (int i = 0; i < kIters; ++i) {
            sense = !sense ? 1 : 0;
            co_await chip.bm.toneStore(n, kPid, bar); // arrival
            progress[n] = i + 1;
            co_await chip.bm.spinUntil(n, kPid, bar, sense);
            // Release implies every participant arrived at barrier i.
            for (NodeId m = 0; m < kNodes; ++m)
                EXPECT_GE(progress[m], i + 1) << "barrier violated";
        }
    };
    for (NodeId n = 0; n < kNodes; ++n)
        spawnNow(chip.engine, worker, n);
    ASSERT_TRUE(chip.engine.run(1'000'000));
    EXPECT_EQ(chip.bm.toneChannel()->stats().releases.value(),
              static_cast<std::uint64_t>(kIters));
}

TEST(BmSystem, SimultaneousFirstArrivalsAreHandled)
{
    // Every node does tone_st at the same cycle: several nodes think
    // they are first and all announce; activation must be idempotent
    // and the barrier must still release exactly once.
    constexpr std::uint32_t kNodes = 8;
    BmChip chip(kNodes);
    const BmAddr bar = 48;
    ASSERT_TRUE(
        chip.bm.allocToneBarrier(bar, std::vector<bool>(kNodes, true)));
    int released = 0;
    auto worker = [&](NodeId n) -> Task<void> {
        co_await chip.bm.toneStore(n, kPid, bar);
        co_await chip.bm.spinUntil(n, kPid, bar, 1);
        ++released;
    };
    for (NodeId n = 0; n < kNodes; ++n)
        spawnNow(chip.engine, worker, n);
    ASSERT_TRUE(chip.engine.run(1'000'000));
    EXPECT_EQ(released, static_cast<int>(kNodes));
    EXPECT_EQ(chip.bm.toneChannel()->stats().releases.value(), 1u);
    EXPECT_GE(chip.bm.stats().toneAnnouncements.value(), 1u);
}

/** One chip takes the chip path: a barrier with an armed node makes
 *  its word chip-local, and an armed set with nobody in it is refused
 *  (the caller falls back to a Data-channel barrier), as on several
 *  chips. */
TEST(BmSystem, SingleChipToneBarrierTakesTheChipPath)
{
    BmChip chip(4);
    EXPECT_FALSE(chip.bm.allocToneBarrier(0, std::vector<bool>(4, false)));
    EXPECT_FALSE(chip.bm.toneChannel()->isAllocated(0));
    std::vector<bool> armed(4, false);
    armed[2] = true;
    ASSERT_TRUE(chip.bm.allocToneBarrier(1, armed));
    EXPECT_EQ(chip.bm.storeArray().scope(1), wisync::bm::BmScope::ChipLocal);
    EXPECT_EQ(chip.bm.storeArray().scope(0), wisync::bm::BmScope::Global);
}

TEST(BmSystem, WiSyncNoTHasNoToneChannel)
{
    BmChip chip(4, /*tone=*/false);
    EXPECT_FALSE(chip.bm.hasTone());
    EXPECT_EQ(chip.bm.toneChannel(), nullptr);
    EXPECT_FALSE(chip.bm.allocToneBarrier(0, std::vector<bool>(4, true)));
}

/**
 * Single-sender broadcasts on a warm, reset-reused 64-core machine:
 * run() must never touch the allocator.
 */
TEST(BmSystem, SingleSenderBroadcastsRunWithoutAllocating)
{
    using wisync::core::ConfigKind;
    using wisync::core::MachineConfig;
    using wisync::core::ThreadCtx;
    wisync::core::Machine m(MachineConfig::make(ConfigKind::WiSync, 64));
    auto point = [&] {
        m.reset();
        m.bm()->storeArray().setTag(0, 1);
        m.spawnThread(0, [](ThreadCtx &ctx) -> Task<void> {
            for (int i = 0; i < 500; ++i)
                co_await ctx.bmStore(0, static_cast<std::uint64_t>(i));
        });
    };
    point();
    m.run(); // warm-up

    point();
    const std::uint64_t before = wisync::sim::heapAllocs();
    m.run();
    EXPECT_EQ(wisync::sim::heapAllocs(), before);
}

/**
 * A 16-core Token-MAC tone barrier loop, after a warm-up round: the
 * Tone-bit announcements on the Data channel, the token grants and
 * the tone-slot ticks are all engine events, and run() must never
 * touch the allocator.
 */
TEST(BmSystem, TokenMacToneBarrierLoopRunsWithoutAllocating)
{
    constexpr std::uint32_t kNodes = 16;
    constexpr int kIters = 20; // even: every round leaves the word at 0
    WirelessConfig wcfg;
    wcfg.macKind = wisync::wireless::MacKind::Token;
    Engine engine;
    BmSystem bm(engine, kNodes, BmConfig{}, wcfg, Rng(99));
    for (BmAddr a = 0; a < 128; ++a)
        bm.storeArray().setTag(a, kPid);
    const BmAddr bar = 40;
    ASSERT_TRUE(bm.allocToneBarrier(bar, std::vector<bool>(kNodes, true)));
    auto worker = [&](NodeId n) -> Task<void> {
        std::uint64_t sense = 0;
        for (int i = 0; i < kIters; ++i) {
            sense = !sense ? 1 : 0;
            co_await delay(engine, 5 + n * 3); // staggered arrivals
            co_await bm.toneStore(n, kPid, bar);
            co_await bm.spinUntil(n, kPid, bar, sense);
        }
    };
    auto round = [&] {
        for (NodeId n = 0; n < kNodes; ++n)
            spawnNow(engine, worker, n);
    };
    round();
    ASSERT_TRUE(engine.run()); // warm-up

    round();
    const std::uint64_t before = wisync::sim::heapAllocs();
    ASSERT_TRUE(engine.run());
    EXPECT_EQ(wisync::sim::heapAllocs(), before);
    EXPECT_EQ(bm.toneChannel()->stats().releases.value(),
              2u * kIters);
    EXPECT_GT(bm.stats().toneAnnouncements.value(), 0u);
    EXPECT_GT(bm.dataChannel().stats().messages.value(), 0u);
}

} // namespace
