/**
 * @file
 * Multi-chip machine tests: the FrequencyPlan mapping math, the
 * ChipBridge's serialize-then-propagate timing, the chip-indexed
 * BmStore operations, machine-wide BM coherence across the bridge
 * (including AFB aborts on stale cross-chip RMWs and the hierarchical
 * MultiChipBarrier), reset-replay determinism for chip
 * grids, the config describe() labels — and the golden pin: a
 * numChips = 1 machine must produce exactly the pre-multichip numbers
 * on the figure kernels, because single-chip is the chip-0 case of the
 * one chip path and must stay byte-identical to the pre-refactor
 * build.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "bm/bm_system.hh"
#include "coro/primitives.hh"
#include "noc/chip_bridge.hh"
#include "sim/engine.hh"
#include "sim/heap_counter.hh"
#include "sync/wisync_sync.hh"
#include "wireless/frequency_plan.hh"
#include "workloads/cas_kernels.hh"
#include "workloads/tight_loop.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;

// ---------------------------------------------------------------------
// FrequencyPlan: pure mapping math.

TEST(FrequencyPlan, EnoughSlotsGiveEveryChipAPrivateChannel)
{
    const wisync::wireless::FrequencyPlan plan(4, 4);
    EXPECT_EQ(plan.chips(), 4u);
    EXPECT_EQ(plan.channels(), 4u);
    for (std::uint32_t c = 0; c < 4; ++c) {
        EXPECT_EQ(plan.channelOf(c), c);
        EXPECT_EQ(plan.chipIndexOnChannel(c), 0u);
        EXPECT_EQ(plan.chipsOnChannel(c), 1u);
    }
}

TEST(FrequencyPlan, FewerSlotsThanChipsShareChannelsRoundRobin)
{
    // 5 chips over 2 slots: channel 0 <- {0, 2, 4}, channel 1 <- {1, 3}.
    const wisync::wireless::FrequencyPlan plan(5, 2);
    EXPECT_EQ(plan.channels(), 2u);
    EXPECT_EQ(plan.chipsOnChannel(0), 3u);
    EXPECT_EQ(plan.chipsOnChannel(1), 2u);
    for (std::uint32_t chip = 0; chip < 5; ++chip) {
        const std::uint32_t ch = plan.channelOf(chip);
        EXPECT_EQ(ch, chip % 2);
        // chipAt is the inverse of (channelOf, chipIndexOnChannel).
        EXPECT_EQ(plan.chipAt(ch, plan.chipIndexOnChannel(chip)), chip);
    }
}

TEST(FrequencyPlan, DegenerateInputsClampToOne)
{
    const wisync::wireless::FrequencyPlan zeroChips(0, 4);
    EXPECT_EQ(zeroChips.chips(), 1u);
    const wisync::wireless::FrequencyPlan zeroSlots(3, 0);
    EXPECT_EQ(zeroSlots.channels(), 1u);
    EXPECT_EQ(zeroSlots.chipsOnChannel(0), 3u);
}

// ---------------------------------------------------------------------
// ChipBridge: FIFO serialization + propagation latency.

/** Post a frame whose delivery calls @p deliver, which outlives it. */
template <typename F>
void
postCalling(wisync::noc::ChipBridge &bridge, std::uint32_t bits, F &deliver)
{
    bridge.post(bits, [](void *d) { (*static_cast<F *>(d))(); }, &deliver);
}

TEST(ChipBridge, FrameArrivesAfterSerializationPlusLatency)
{
    wisync::sim::Engine eng;
    wisync::noc::BridgeConfig cfg;
    cfg.latencyCycles = 10;
    cfg.widthBits = 64;
    cfg.headerBits = 32;
    wisync::noc::ChipBridge bridge(eng, cfg);

    // 64 payload + 32 header bits over a 64-bit link = 2 cycles of
    // serialization; delivery at 2 + 10.
    wisync::sim::Cycle arrived = 0;
    auto arrive = [&] { arrived = eng.now(); };
    postCalling(bridge, 64, arrive);
    eng.run();
    EXPECT_EQ(arrived, 12u);
    EXPECT_EQ(bridge.stats().frames.value(), 1u);
    EXPECT_EQ(bridge.stats().busyCycles.value(), 2u);
    EXPECT_EQ(bridge.stats().queueWaitCycles.value(), 0u);
}

TEST(ChipBridge, BackToBackFramesSerializeFifo)
{
    wisync::sim::Engine eng;
    wisync::noc::BridgeConfig cfg;
    cfg.latencyCycles = 5;
    cfg.widthBits = 32;
    cfg.headerBits = 32;
    wisync::noc::ChipBridge bridge(eng, cfg);

    // Both posted at cycle 0; each needs (32+32)/32 = 2 cycles on the
    // wire. The second waits for the first: arrivals at 7 and 9.
    std::vector<wisync::sim::Cycle> arrivals;
    auto arrive = [&] { arrivals.push_back(eng.now()); };
    postCalling(bridge, 32, arrive);
    postCalling(bridge, 32, arrive);
    EXPECT_EQ(bridge.nextFree(), 4u);
    eng.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], 7u);
    EXPECT_EQ(arrivals[1], 9u);
    // The second frame queued for the serializer for 2 cycles.
    EXPECT_EQ(bridge.stats().queueWaitCycles.value(), 2u);
}

TEST(ChipBridge, ResetIdlesTheLinkAndZeroesStats)
{
    wisync::sim::Engine eng;
    wisync::noc::ChipBridge bridge(eng, {});
    bridge.post(64, [](void *) {}, nullptr);
    eng.run();
    EXPECT_GT(bridge.stats().frames.value(), 0u);
    eng.reset();
    bridge.reset({});
    EXPECT_EQ(bridge.nextFree(), 0u);
    EXPECT_EQ(bridge.stats().frames.value(), 0u);
}

// ---------------------------------------------------------------------
// BmStore chip-indexed operations and the per-chip invariant.

TEST(BmStoreChips, WriteChipTouchesOnlyItsReplicaGroup)
{
    wisync::sim::Engine eng;
    wisync::bm::BmStore store(eng, 8, 4, /*num_chips=*/2);
    // Chips of 4 nodes each: write chip 1's replicas of word 2.
    store.writeChip(1, 2, 77);
    for (wisync::sim::NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(store.read(n, 2), 0u);
    for (wisync::sim::NodeId n = 4; n < 8; ++n)
        EXPECT_EQ(store.read(n, 2), 77u);
    // Whole-machine consistency is broken, per-chip consistency holds.
    EXPECT_FALSE(store.replicasConsistent());
    EXPECT_FALSE(store.replicasConsistent(4));  // word 2 is Global
    store.setScope(2, wisync::bm::BmScope::ChipLocal);
    EXPECT_TRUE(store.replicasConsistent(4));
    EXPECT_EQ(store.scope(2), wisync::bm::BmScope::ChipLocal);
    EXPECT_EQ(store.scope(1), wisync::bm::BmScope::Global);
}

TEST(BmStoreChips, ToggleChipFlipsOneGroup)
{
    wisync::sim::Engine eng;
    wisync::bm::BmStore store(eng, 8, 2, /*num_chips=*/2);
    store.toggleChip(0, 1);
    EXPECT_EQ(store.read(0, 1), 1u);
    EXPECT_EQ(store.read(3, 1), 1u);
    EXPECT_EQ(store.read(4, 1), 0u);
    store.toggleChip(0, 1);
    EXPECT_EQ(store.read(0, 1), 0u);
}

TEST(BmStoreChips, ChipWriteIsVisibleToExactlyThatChipsNodes)
{
    constexpr std::uint32_t kChips = 4, kPerChip = 4;
    for (std::uint32_t c = 0; c < kChips; ++c) {
        wisync::sim::Engine eng;
        wisync::bm::BmStore store(eng, kChips * kPerChip, 8, kChips);
        std::array<wisync::coro::Watch, kChips * kPerChip> watches;
        for (wisync::sim::NodeId n = 0; n < kChips * kPerChip; ++n)
            store.arm(watches[n], n, 3);
        store.writeChip(c, 3, 0xC0DE + c);
        for (wisync::sim::NodeId n = 0; n < kChips * kPerChip; ++n) {
            const bool mine = n / kPerChip == c;
            EXPECT_EQ(store.read(n, 3), mine ? 0xC0DE + c : 0u)
                << "chip " << c << " node " << n;
            EXPECT_EQ(watches[n].fired(), mine)
                << "chip " << c << " node " << n;
            EXPECT_EQ(store.read(n, 2), 0u);
        }
        // Within a chip the replicas are one array: only the Global
        // cross-chip check can fail.
        EXPECT_FALSE(store.replicasConsistent(kPerChip));
        store.setScope(3, wisync::bm::BmScope::ChipLocal);
        EXPECT_TRUE(store.replicasConsistent(kPerChip));
    }
}

TEST(BmStoreChips, ResetRestoresGlobalScope)
{
    wisync::sim::Engine eng;
    wisync::bm::BmStore store(eng, 4, 2);
    store.setScope(1, wisync::bm::BmScope::ChipLocal);
    store.reset();
    EXPECT_EQ(store.scope(1), wisync::bm::BmScope::Global);
}

// ---------------------------------------------------------------------
// Machine-level multi-chip coherence.

TEST(MultiChip, TightLoopCoherentAcrossBridge)
{
    for (const auto kind : {ConfigKind::WiSync, ConfigKind::WiSyncNoT}) {
        for (const std::uint32_t chips : {2u, 4u}) {
            auto cfg = MachineConfig::make(kind, 32);
            cfg.numChips = chips;
            Machine m(cfg);
            wisync::workloads::TightLoopParams p;
            p.iterations = 4;
            p.arrayElems = 8;
            const auto r = wisync::workloads::runTightLoopOn(m, p);
            EXPECT_TRUE(r.completed) << chips << " chips";
            EXPECT_EQ(r.operations, 4u);
            // The global barrier phase must have crossed the bridge.
            EXPECT_GT(r.bridgeFrames, 0u);
            // At quiescence every Global word agrees machine-wide and
            // every ChipLocal word agrees within its chip.
            EXPECT_TRUE(m.bm()->storeArray().replicasConsistent(
                cfg.coresPerChip()));
        }
    }
}

TEST(MultiChip, CrossChipRmwContentionAbortsStaleReplicasAndCompletes)
{
    auto cfg = MachineConfig::make(ConfigKind::WiSyncNoT, 32);
    cfg.numChips = 4;
    Machine m(cfg);
    wisync::workloads::CasKernelParams p;
    p.criticalSectionInstr = 64;
    p.duration = 20'000;
    const auto r = wisync::workloads::runCasKernelOn(
        wisync::workloads::CasKernel::Lifo, m, p);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.operations, 0u);
    // Bridged updates race the local RMW windows: some attempts must
    // have been aborted on stale replicas, and every survivor landed
    // coherently.
    EXPECT_GT(r.staleRmwAborts, 0u);
    EXPECT_GT(r.bridgeFrames, 0u);
    EXPECT_TRUE(
        m.bm()->storeArray().replicasConsistent(cfg.coresPerChip()));
}

TEST(MultiChip, BridgeLatencyVisibleInCrossChipBarrierCost)
{
    // The same 64-core WiSync barrier storm on one die vs 4 chips: the
    // MultiChipBarrier's global phase rides the bridge every round, so
    // the tiled run must be strictly slower.
    wisync::workloads::TightLoopParams storm;
    storm.iterations = 4;
    storm.arrayElems = 0;
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 64);
    Machine one(cfg);
    const auto intra = wisync::workloads::runTightLoopOn(one, storm);
    cfg.numChips = 4;
    Machine four(cfg);
    const auto inter = wisync::workloads::runTightLoopOn(four, storm);
    ASSERT_TRUE(intra.completed);
    ASSERT_TRUE(inter.completed);
    EXPECT_GT(inter.cycles, intra.cycles);
    EXPECT_EQ(intra.bridgeFrames, 0u);
    EXPECT_GT(inter.bridgeFrames, 0u);
}

TEST(MultiChip, ResetReplayIsBitIdentical)
{
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 32);
    cfg.numChips = 2;
    Machine m(cfg);
    wisync::workloads::TightLoopParams p;
    p.iterations = 3;
    p.arrayElems = 8;
    const auto first = wisync::workloads::runTightLoopOn(m, p);
    m.reset(cfg);
    const auto second = wisync::workloads::runTightLoopOn(m, p);
    EXPECT_TRUE(wisync::workloads::bitIdentical(first, second));

    // And a reset machine matches a fresh one exactly.
    Machine fresh(cfg);
    const auto ref = wisync::workloads::runTightLoopOn(fresh, p);
    EXPECT_TRUE(wisync::workloads::bitIdentical(first, ref));
}

TEST(MultiChip, ResetMovesOneMachineBetweenChipCounts)
{
    // numChips is behavioral: one machine serves 1-, 2- and 4-chip
    // sweep points through reset, matching fresh builds each time.
    wisync::workloads::TightLoopParams p;
    p.iterations = 3;
    p.arrayElems = 8;
    auto cfg = MachineConfig::make(ConfigKind::WiSyncNoT, 32);
    Machine m(cfg);
    for (const std::uint32_t chips : {1u, 4u, 2u, 1u}) {
        cfg.numChips = chips;
        m.reset(cfg);
        const auto reused = wisync::workloads::runTightLoopOn(m, p);
        Machine fresh(cfg);
        const auto ref = wisync::workloads::runTightLoopOn(fresh, p);
        EXPECT_TRUE(wisync::workloads::bitIdentical(reused, ref))
            << chips << " chips";
    }
}

TEST(MultiChip, ResetFourToTwoChipsAndBackMatchesFreshBitForBit)
{
    // Re-tiling regroups the BM arrays: after 4 -> 2 -> 4 chips the
    // machine's results and every replica match a fresh build.
    wisync::workloads::TightLoopParams p;
    p.iterations = 3;
    p.arrayElems = 8;
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 32);
    cfg.numChips = 4;
    Machine m(cfg);
    (void)wisync::workloads::runTightLoopOn(m, p);
    for (const std::uint32_t chips : {2u, 4u}) {
        cfg.numChips = chips;
        m.reset(cfg);
        EXPECT_EQ(m.bm()->storeArray().chips(), chips);
        const auto reused = wisync::workloads::runTightLoopOn(m, p);
        Machine fresh(cfg);
        const auto ref = wisync::workloads::runTightLoopOn(fresh, p);
        EXPECT_TRUE(wisync::workloads::bitIdentical(reused, ref))
            << chips << " chips";
        EXPECT_EQ(m.bm()->storeArray().fingerprint(),
                  fresh.bm()->storeArray().fingerprint())
            << chips << " chips";
        EXPECT_EQ(m.engine().eventsExecuted(),
                  fresh.engine().eventsExecuted());
        EXPECT_TRUE(m.bm()->storeArray().replicasConsistent(
            cfg.coresPerChip()));
    }
}

TEST(MultiChipDeathTest, CoresMustDivideEvenlyAmongChips)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 32);
    cfg.numChips = 3;
    EXPECT_EXIT(Machine m(cfg), ::testing::ExitedWithCode(1),
                "divide evenly");
}

// ---------------------------------------------------------------------
// describe() labels.

TEST(MachineConfigDescribe, ChipCountOnlyOffTheDefault)
{
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 64);
    EXPECT_EQ(cfg.describe().find("chips="), std::string::npos);
    cfg.numChips = 4;
    EXPECT_NE(cfg.describe().find("chips=4"), std::string::npos);
}

TEST(MachineConfigDescribe, LossyRetryKnobsAppearOnlyWhenLossy)
{
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 64);
    // Non-default retry knobs on an ideal channel: silent (byte-
    // identical to pre-loss harness output).
    cfg.wireless.maxRetries = 3;
    const std::string ideal = cfg.describe();
    EXPECT_EQ(ideal.find("loss="), std::string::npos);
    EXPECT_EQ(ideal.find("retries="), std::string::npos);

    // Lossy: the reliability knobs change behavior, so two sweep
    // points differing only in them must print distinct labels.
    cfg.wireless.lossPct = 10.0;
    cfg.wireless.ackTimeoutCycles = 9;
    cfg.wireless.retryBackoffMaxExp = 2;
    const std::string lossy = cfg.describe();
    EXPECT_NE(lossy.find("loss=10%"), std::string::npos);
    EXPECT_NE(lossy.find("ack=9"), std::string::npos);
    EXPECT_NE(lossy.find("retries=3"), std::string::npos);
    EXPECT_NE(lossy.find("boexp=2"), std::string::npos);

    auto other = cfg;
    other.wireless.maxRetries = 5;
    EXPECT_NE(lossy, other.describe());
}

// ---------------------------------------------------------------------
// The golden pin: numChips = 1 must reproduce the pre-multichip build
// exactly. These constants were captured from the last pre-refactor
// commit with this exact probe (cycles/ops/collisions are integers;
// the utilisation literals are %.17g round-trips, so EXPECT_EQ on the
// doubles is an exact bit comparison).

TEST(MultiChipGoldenPin, SingleChipMatchesPreRefactorBuild)
{
    using wisync::workloads::runCasKernel;
    using wisync::workloads::runTightLoop;
    wisync::workloads::TightLoopParams tl;
    tl.iterations = 6;
    tl.arrayElems = 32;

    const auto a = runTightLoop(ConfigKind::WiSync, 16, tl);
    EXPECT_EQ(a.cycles, 1379u);
    EXPECT_EQ(a.operations, 6u);
    EXPECT_EQ(a.collisions, 11u);
    EXPECT_EQ(a.dataChannelUtilisation, 0.037708484408992021);

    const auto b = runTightLoop(ConfigKind::WiSyncNoT, 16, tl);
    EXPECT_EQ(b.cycles, 2429u);
    EXPECT_EQ(b.operations, 6u);
    EXPECT_EQ(b.collisions, 30u);
    EXPECT_EQ(b.dataChannelUtilisation, 0.24701523260601072);

    const auto c = runTightLoop(ConfigKind::WiSync, 64, tl);
    EXPECT_EQ(c.cycles, 3167u);
    EXPECT_EQ(c.operations, 6u);
    EXPECT_EQ(c.collisions, 34u);
    EXPECT_EQ(c.dataChannelUtilisation, 0.030944111146195136);

    wisync::workloads::CasKernelParams cp;
    cp.criticalSectionInstr = 64;
    cp.duration = 30'000;
    const auto d = runCasKernel(wisync::workloads::CasKernel::Lifo,
                                ConfigKind::WiSyncNoT, 8, cp);
    EXPECT_EQ(d.cycles, 30000u);
    EXPECT_EQ(d.operations, 1077u);
    EXPECT_EQ(d.collisions, 71u);
    EXPECT_EQ(d.dataChannelUtilisation, 0.1838227957561446);

    // And none of it ever touched the multichip machinery.
    EXPECT_EQ(a.bridgeFrames + b.bridgeFrames + c.bridgeFrames +
                  d.bridgeFrames,
              0u);
    EXPECT_EQ(a.staleRmwAborts + d.staleRmwAborts, 0u);
}

/**
 * 4-chip BM traffic after a warm-up round: every global store crosses
 * the bridge, and run() must never touch the allocator, on the ideal
 * link and on a lossy one (drops, retransmissions and give-up
 * re-issues all reuse the pooled in-flight frames).
 */
TEST(MultiChip, BridgeTrafficRunsWithoutAllocating)
{
    using wisync::bm::BmSystem;
    using wisync::sim::NodeId;
    constexpr std::uint32_t kNodes = 32; // 8 per chip
    for (const double loss : {0.0, 30.0}) {
        wisync::noc::BridgeConfig bcfg;
        bcfg.lossPct = loss;
        bcfg.maxRetries = 1;
        wisync::sim::Engine engine;
        BmSystem bm(engine, kNodes, wisync::bm::BmConfig{},
                    wisync::wireless::WirelessConfig{}, wisync::sim::Rng(7),
                    /*with_tone=*/true, /*num_chips=*/4, bcfg);
        for (wisync::sim::BmAddr a = 0; a < 4; ++a)
            bm.storeArray().setTag(a, 1);
        // One sender per chip, each storing to its own global word.
        auto sender = [&](NodeId n) -> wisync::coro::Task<void> {
            for (std::uint64_t i = 0; i < 50; ++i)
                co_await bm.store(n, 1, n / 8, i);
        };
        auto round = [&] {
            for (NodeId n = 0; n < kNodes; n += 8)
                wisync::coro::spawnNow(engine, sender, n);
        };
        round();
        ASSERT_TRUE(engine.run()); // warm-up

        round();
        const std::uint64_t before = wisync::sim::heapAllocs();
        ASSERT_TRUE(engine.run());
        EXPECT_EQ(wisync::sim::heapAllocs(), before) << "loss " << loss;
        const auto &stats = bm.bridge()->stats();
        EXPECT_EQ(stats.frames.value(), 2u * 4 * 50);
        EXPECT_TRUE(bm.bridge()->dropAccountingConsistent());
        if (loss > 0.0) {
            EXPECT_GT(stats.retransmits.value(), 0u);
            EXPECT_GT(stats.reissues.value(), 0u);
        }
    }
}

/**
 * A bridged frame raises AFB on the landing chip's pending RMWs of the
 * word it carries, and on no other: chip 1's channel is held by a bulk
 * store while node 4's RMW (same word) and node 5's (another word)
 * wait for it, armed, as chip 0's store lands.
 */
TEST(MultiChip, BridgedStoreRaisesAfbOnlyOnRmwsOfItsWord)
{
    using wisync::bm::RmwOp;
    using wisync::coro::Task;
    wisync::sim::Engine engine;
    wisync::bm::BmSystem bm(engine, 8, wisync::bm::BmConfig{},
                            wisync::wireless::WirelessConfig{},
                            wisync::sim::Rng(7), /*with_tone=*/true,
                            /*num_chips=*/2, wisync::noc::BridgeConfig{});
    for (wisync::sim::BmAddr a = 0; a < 64; ++a)
        bm.storeArray().setTag(a, 1);
    wisync::bm::RmwResult same{}, apart{};
    wisync::coro::spawnNow(engine, [&]() -> Task<void> {
        co_await bm.store(0, 1, 3, 100);
    });
    wisync::coro::spawnNow(engine, [&]() -> Task<void> {
        co_await wisync::coro::delay(engine, 20);
        co_await bm.bulkStore(6, 1, 16, {1, 2, 3, 4});
    });
    wisync::coro::spawnNow(engine, [&]() -> Task<void> {
        co_await wisync::coro::delay(engine, 21);
        same = co_await bm.rmw(4, 1, 3, RmwOp::FetchAdd, 1);
    });
    wisync::coro::spawnNow(engine, [&]() -> Task<void> {
        co_await wisync::coro::delay(engine, 21);
        apart = co_await bm.rmw(5, 1, 40, RmwOp::FetchAdd, 1);
    });
    ASSERT_TRUE(engine.run());
    EXPECT_EQ(bm.bridge()->stats().frames.value(), 3u);
    EXPECT_TRUE(same.atomicityFailed);
    EXPECT_EQ(same.oldValue, 0u) << "read before the frame landed";
    EXPECT_FALSE(apart.atomicityFailed);
    EXPECT_EQ(bm.stats().afbFailures.value(), 1u);
    EXPECT_EQ(bm.storeArray().read(5, 3), 100u);
    EXPECT_EQ(bm.storeArray().read(0, 40), 1u);
}

/**
 * Per-thread barrier state is one vector entry per core, sized when
 * the barrier is built: on a reset machine the rounds of a freshly
 * built MultiChipBarrier allocate nothing.
 */
TEST(MultiChip, FreshBarrierRoundsRunWithoutAllocating)
{
    using wisync::core::ThreadCtx;
    using wisync::sim::NodeId;
    constexpr std::uint32_t kThreads = 32;
    auto cfg = MachineConfig::make(ConfigKind::WiSync, kThreads);
    cfg.numChips = 4;
    Machine m(cfg);
    std::vector<NodeId> nodes;
    for (NodeId n = 0; n < kThreads; ++n)
        nodes.push_back(n);
    auto spawn_rounds = [&](wisync::sync::Barrier &barrier) {
        for (NodeId n = 0; n < kThreads; ++n)
            m.spawnThread(n, [&barrier](ThreadCtx &ctx)
                                 -> wisync::coro::Task<void> {
                for (int i = 0; i < 4; ++i)
                    co_await barrier.wait(ctx);
            });
    };
    {
        wisync::sync::MultiChipBarrier warm(m, 1, nodes);
        spawn_rounds(warm);
        ASSERT_TRUE(m.run()); // warm-up: fills the pools
    }
    m.reset(cfg);
    wisync::sync::MultiChipBarrier barrier(m, 1, nodes);
    spawn_rounds(barrier);
    const std::uint64_t before = wisync::sim::heapAllocs();
    ASSERT_TRUE(m.run());
    EXPECT_EQ(wisync::sim::heapAllocs(), before);
}

} // namespace
