/**
 * @file
 * Tests for the Gilbert–Elliott burst model, the per-frequency-channel
 * loss profiles and the lossy retrying ChipBridge.
 *
 * Five layers:
 *  - BurstParams/BurstState math: stationary bad fraction, equal-mean
 *    parametrization, one-draw-per-step determinism;
 *  - channel-level burst semantics on the bare engine + channel
 *    harness (the deterministic alternating chain, SNR-table
 *    composition, reset clearing, the ack/retry invariant under
 *    bursty drops, burst-off byte-identity to the golden run);
 *  - per-channel loss profiles: FrequencyPlan::channelLossDb folded
 *    into the per-chip attenuation matrices (chips sharing a slot
 *    share its physics);
 *  - the lossy ChipBridge: exact retry/give-up/re-issue timing on the
 *    deterministic alternating chain, the drop-accounting invariant,
 *    never-lost delivery, machine-level bridge loss at 2–4 chips and
 *    the ideal-bridge identity;
 *  - describe() labels: bridge knobs always print on multi-chip
 *    configs (the PR's bugfix), burst/profile/bridge-loss knobs print
 *    only off their defaults.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bm/bm_system.hh"
#include "core/machine.hh"
#include "coro/primitives.hh"
#include "noc/chip_bridge.hh"
#include "sim/engine.hh"
#include "sim/rng.hh"
#include "wireless/burst.hh"
#include "wireless/data_channel.hh"
#include "wireless/frequency_plan.hh"
#include "wireless/mac/mac_protocol.hh"
#include "wireless/rf_model.hh"
#include "workloads/kernel_result.hh"
#include "workloads/tight_loop.hh"

namespace {

using wisync::bm::BmConfig;
using wisync::bm::BmSystem;
using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::coro::spawnNow;
using wisync::coro::Task;
using wisync::noc::BridgeConfig;
using wisync::noc::ChipBridge;
using wisync::sim::BmAddr;
using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::sim::Rng;
using wisync::wireless::BurstParams;
using wisync::wireless::BurstState;
using wisync::wireless::DataChannel;
using wisync::wireless::FrequencyPlan;
using wisync::wireless::Mac;
using wisync::wireless::MacKind;
using wisync::wireless::MacProtocol;
using wisync::wireless::SendOutcome;
using wisync::wireless::WirelessConfig;
using wisync::workloads::KernelResult;

/** The deterministic chain: alternates Bad (always drop) / Good
 *  (always deliver), starting with a drop — every uniform draw is
 *  < 1, so the transitions fire regardless of the RNG values. */
BurstParams
alternatingChain()
{
    BurstParams p;
    p.enabled = true;
    p.goodLossPct = 0.0;
    p.badLossPct = 100.0;
    p.pGoodToBad = 1.0;
    p.pBadToGood = 1.0;
    return p;
}

/** Bare harness with a configurable channel (mirrors test_loss.cc). */
struct BurstyNet
{
    BurstyNet(std::uint32_t nodes, const WirelessConfig &cfg)
        : channel(engine, cfg),
          protocol(wisync::wireless::makeMacProtocol(cfg, engine, channel,
                                                     nodes))
    {
        Rng seeder(4242);
        for (std::uint32_t n = 0; n < nodes; ++n)
            macs.push_back(std::make_unique<Mac>(engine, channel,
                                                 *protocol, n,
                                                 seeder.fork()));
    }

    Engine engine;
    DataChannel channel;
    std::unique_ptr<MacProtocol> protocol;
    std::vector<std::unique_ptr<Mac>> macs;
};

/** TightLoop on a machine with an arbitrary config tweak. */
KernelResult
runTweaked(ConfigKind kind, std::uint32_t cores, std::uint32_t iterations,
           const std::function<void(MachineConfig &)> &tweak,
           Machine *reuse = nullptr)
{
    auto cfg = MachineConfig::make(kind, cores);
    if (tweak)
        tweak(cfg);
    std::unique_ptr<Machine> owned;
    if (reuse != nullptr)
        reuse->reset(cfg);
    else
        owned = std::make_unique<Machine>(cfg);
    Machine &m = reuse != nullptr ? *reuse : *owned;
    wisync::workloads::TightLoopParams params;
    params.iterations = iterations;
    params.runLimit = 40'000'000;
    return wisync::workloads::runTightLoopOn(m, params);
}

// ---------------------------------------------------------------------
// BurstParams / BurstState math.

TEST(BurstParams, StationaryFractionAndMeanLoss)
{
    BurstParams p;
    p.enabled = true;
    p.goodLossPct = 1.0;
    p.badLossPct = 50.0;
    p.pGoodToBad = 0.1;
    p.pBadToGood = 0.3;
    EXPECT_DOUBLE_EQ(p.badFraction(), 0.25);
    EXPECT_DOUBLE_EQ(p.meanLossPct(), 1.0 * 0.75 + 50.0 * 0.25);
    // Degenerate: no transitions at all means the chain never leaves
    // Good, so the stationary bad fraction is 0 by convention.
    BurstParams frozen;
    EXPECT_DOUBLE_EQ(frozen.badFraction(), 0.0);
}

TEST(BurstParams, FromMeanHitsTheRequestedAverageLoss)
{
    for (const double mean : {1.0, 5.0, 20.0}) {
        for (const double len : {1.0, 4.0, 16.0}) {
            const auto p = BurstParams::fromMean(mean, len);
            EXPECT_TRUE(p.enabled);
            EXPECT_TRUE(p.lossy());
            EXPECT_NEAR(p.meanLossPct(), mean, 1e-9)
                << "mean " << mean << " len " << len;
            EXPECT_NEAR(1.0 / p.pBadToGood, len, 1e-9);
        }
    }
    // Burst length 1 degenerates to an i.i.d. draw at the mean rate:
    // leaving Bad is certain, so consecutive drops are uncorrelated.
    EXPECT_DOUBLE_EQ(BurstParams::fromMean(30.0, 1.0).pBadToGood, 1.0);
}

TEST(BurstParams, LossyRequiresAReachableLossState)
{
    BurstParams p;
    EXPECT_FALSE(p.lossy()); // disabled
    p.enabled = true;
    EXPECT_FALSE(p.lossy()); // enabled but Bad is unreachable
    p.pGoodToBad = 0.1;
    EXPECT_TRUE(p.lossy()); // Bad reachable and 100% lossy
    p.badLossPct = 0.0;
    EXPECT_FALSE(p.lossy()); // both states clean
    p.goodLossPct = 2.0;
    EXPECT_TRUE(p.lossy()); // Good itself drops
}

TEST(BurstState, OneDrawPerStepAndDeterministicReplay)
{
    const auto p = BurstParams::fromMean(20.0, 4.0);
    Rng a(7), b(7);
    BurstState sa, sb;
    for (int i = 0; i < 1000; ++i)
        EXPECT_DOUBLE_EQ(sa.step(p, a), sb.step(p, b)) << "step " << i;
    // Exactly one draw per step: both streams stay in lockstep.
    EXPECT_EQ(a.next(), b.next());
}

TEST(BurstState, SojournTimesMatchTheParametrization)
{
    // Mean burst length 1/pBadToGood, long-run loss near the mean.
    const auto p = BurstParams::fromMean(20.0, 5.0);
    Rng rng(123);
    BurstState s;
    int bad_steps = 0;
    const int kSteps = 200'000;
    for (int i = 0; i < kSteps; ++i)
        if (s.step(p, rng) > 0.5)
            ++bad_steps;
    const double frac = static_cast<double>(bad_steps) / kSteps;
    EXPECT_NEAR(frac, 0.2, 0.01);
}

// ---------------------------------------------------------------------
// Channel-level burst semantics.

TEST(BurstChannel, DisabledChainDrawsNothing)
{
    Engine engine;
    WirelessConfig cfg;
    // Odd knob settings with the gate off: dead state.
    cfg.burst.goodLossPct = 7.0;
    cfg.burst.pGoodToBad = 0.5;
    DataChannel channel(engine, cfg);
    EXPECT_FALSE(channel.lossy());
    EXPECT_FALSE(cfg.burst.lossy());
}

TEST(BurstChannel, EnabledChainArmsTheLossMachinery)
{
    Engine engine;
    WirelessConfig cfg;
    cfg.burst = BurstParams::fromMean(10.0, 4.0);
    DataChannel channel(engine, cfg);
    EXPECT_TRUE(channel.lossy());
    // reset to the ideal config disarms and clears the chain states.
    channel.reset(WirelessConfig{});
    EXPECT_FALSE(channel.lossy());
    EXPECT_FALSE(channel.burstBad(0));
}

TEST(BurstChannel, AlternatingChainDropsExactlyEveryOtherSend)
{
    WirelessConfig cfg;
    cfg.burst = alternatingChain();
    cfg.maxRetries = 8;
    cfg.ackTimeoutCycles = 4;
    cfg.retryBackoffMaxExp = 1;
    BurstyNet net(2, cfg);
    Cycle done = 0;
    spawnNow(net.engine, [&]() -> Task<void> {
        co_await net.macs[0]->send(false, [] {});
        done = net.engine.now();
    });
    ASSERT_TRUE(net.engine.run(10'000));
    // tx 0..5 enters Bad -> drop; ack 4 + backoff 2 -> retransmit at
    // 11; tx 11..16 leaves Bad -> delivered at 16.
    EXPECT_EQ(done, 16u);
    EXPECT_EQ(net.channel.stats().messages.value(), 2u);
    EXPECT_EQ(net.channel.stats().drops.value(), 1u);
    const auto &s = net.protocol->stats();
    EXPECT_EQ(s.ackTimeouts.value(), 1u);
    EXPECT_EQ(s.retransmits.value(), 1u);
    EXPECT_EQ(s.giveUps.value(), 0u);
    // After the delivering (Good-state) transmission the chain sits in
    // Good, visible through the introspection hook.
    EXPECT_FALSE(net.channel.burstBad(0));
}

TEST(BurstChannel, PerTransmitterChainsAreIndependent)
{
    WirelessConfig cfg;
    cfg.burst = alternatingChain();
    BurstyNet net(4, cfg);
    // Node 0 transmits once (entering Bad); node 1 never transmits, so
    // its chain must still be in the initial Good state.
    spawnNow(net.engine, [&]() -> Task<void> {
        co_await net.macs[0]->send(false, [] {});
    });
    ASSERT_TRUE(net.engine.run(10'000));
    EXPECT_FALSE(net.channel.burstBad(1));
    EXPECT_GE(net.channel.stats().drops.value(), 1u);
}

TEST(BurstChannel, SnrTableComposesWithTheChainState)
{
    Engine engine;
    WirelessConfig cfg;
    cfg.burst = alternatingChain();
    cfg.burst.badLossPct = 50.0;
    DataChannel channel(engine, cfg);
    channel.setDropTable({0.5}, {0.5});
    // The chain replaces only the uniform lossPct knob; the SNR table
    // is an independent corruption source, so in the Bad state the
    // composed drop probability is 1 - 0.5 * 0.5. (Probed indirectly:
    // dropProbability covers the i.i.d. path and must ignore burst.)
    EXPECT_DOUBLE_EQ(channel.dropProbability(0, false), 0.5);
}

TEST(BurstChannel, InvariantHoldsUnderRandomBurstLoss)
{
    WirelessConfig cfg;
    cfg.burst = BurstParams::fromMean(30.0, 4.0);
    BurstyNet net(8, cfg);
    int delivered = 0, gaveup = 0;
    auto sender = [&](int mac) -> Task<void> {
        for (int i = 0; i < 5; ++i) {
            const auto out =
                co_await net.macs[static_cast<std::size_t>(mac)]->send(
                    false, [] {});
            (out == SendOutcome::Delivered ? delivered : gaveup)++;
        }
    };
    for (int m = 0; m < 8; ++m)
        spawnNow(net.engine, sender, m);
    ASSERT_TRUE(net.engine.run(10'000'000));
    EXPECT_EQ(delivered + gaveup, 40);
    EXPECT_GE(net.channel.stats().drops.value(), 1u);
    // Bursty drops ride the same reliability contract as i.i.d. ones:
    // drop == ack timeout == retransmit-or-give-up, nothing lost.
    const auto &s = net.protocol->stats();
    EXPECT_EQ(s.ackTimeouts.value(), net.channel.stats().drops.value());
    EXPECT_EQ(s.ackTimeouts.value(),
              s.retransmits.value() + s.giveUps.value());
}

TEST(BurstChannel, BurstyRunsAreSeedDeterministic)
{
    auto run = [] {
        WirelessConfig cfg;
        cfg.burst = BurstParams::fromMean(25.0, 6.0);
        BurstyNet net(16, cfg);
        auto sender = [&](int mac) -> Task<void> {
            for (int i = 0; i < 5; ++i)
                co_await net.macs[static_cast<std::size_t>(mac)]->send(
                    false, [] {});
        };
        for (int m = 0; m < 16; ++m)
            spawnNow(net.engine, sender, m);
        EXPECT_TRUE(net.engine.run(10'000'000));
        return std::pair{net.engine.now(),
                         net.channel.stats().drops.value()};
    };
    EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------
// Machine-level burst contracts.

TEST(BurstMachine, BurstOffMatchesTheGoldenRun)
{
    // The identity contract, pinned to the same golden number as the
    // loss layer's: a disabled chain — even with every burst knob
    // moved off its default — cannot move a cycle.
    const auto r = runTweaked(ConfigKind::WiSyncNoT, 16, 8,
                              [](MachineConfig &cfg) {
                                  cfg.wireless.burst.goodLossPct = 9.0;
                                  cfg.wireless.burst.badLossPct = 80.0;
                                  cfg.wireless.burst.pGoodToBad = 0.4;
                                  cfg.wireless.burst.pBadToGood = 0.2;
                              });
    EXPECT_EQ(r.cycles, 5984u);
    EXPECT_EQ(r.wirelessDrops, 0u);

    const auto base =
        runTweaked(ConfigKind::WiSyncNoT, 16, 8, {});
    EXPECT_TRUE(wisync::workloads::bitIdentical(base, r));
}

TEST(BurstMachine, BurstyRunTerminatesWithTheInvariant)
{
    auto tweak = [](MachineConfig &cfg) {
        cfg.wireless.burst = BurstParams::fromMean(20.0, 4.0);
    };
    const auto a = runTweaked(ConfigKind::WiSyncNoT, 16, 5, tweak);
    const auto b = runTweaked(ConfigKind::WiSyncNoT, 16, 5, tweak);
    ASSERT_TRUE(a.completed);
    EXPECT_TRUE(wisync::workloads::bitIdentical(a, b));
    EXPECT_GE(a.wirelessDrops, 1u);
    EXPECT_EQ(a.wirelessDrops, a.macAckTimeouts);
    EXPECT_EQ(a.macAckTimeouts, a.macRetransmits + a.macGiveups);
}

TEST(BurstMachine, FreshVsResetIdenticalUnderBurstLoss)
{
    auto tweak = [](MachineConfig &cfg) {
        cfg.wireless.burst = BurstParams::fromMean(40.0, 3.0);
    };
    const auto fresh = runTweaked(ConfigKind::WiSync, 16, 4, tweak);
    Machine persistent(MachineConfig::make(ConfigKind::WiSync, 16));
    const auto reused =
        runTweaked(ConfigKind::WiSync, 16, 4, tweak, &persistent);
    ASSERT_TRUE(fresh.completed);
    EXPECT_TRUE(wisync::workloads::bitIdentical(fresh, reused));
    EXPECT_GE(fresh.wirelessDrops, 1u);
}

TEST(BurstMachine, EqualMeanBurstDivergesFromIid)
{
    // The sensitivity claim behind the whole model: at equal average
    // loss, correlated drops walk the bounded backoff differently
    // than i.i.d. drops, so the retry cost (and the cycle count)
    // measurably moves.
    const auto iid = runTweaked(ConfigKind::WiSyncNoT, 16, 8,
                                [](MachineConfig &cfg) {
                                    cfg.wireless.lossPct = 20.0;
                                });
    const auto burst =
        runTweaked(ConfigKind::WiSyncNoT, 16, 8, [](MachineConfig &cfg) {
            cfg.wireless.burst = BurstParams::fromMean(20.0, 8.0);
        });
    ASSERT_TRUE(iid.completed);
    ASSERT_TRUE(burst.completed);
    EXPECT_GE(iid.wirelessDrops, 1u);
    EXPECT_GE(burst.wirelessDrops, 1u);
    EXPECT_NE(iid.cycles, burst.cycles);
}

// ---------------------------------------------------------------------
// Per-frequency-channel loss profiles.

TEST(ChannelProfile, FrequencyPlanExposesPerSlotLoss)
{
    const FrequencyPlan plan(4, 2, 3.0, 2.5);
    EXPECT_DOUBLE_EQ(plan.channelLossDb(0), 3.0);
    EXPECT_DOUBLE_EQ(plan.channelLossDb(1), 5.5);
    // Default plan: every slot identical, zero extra loss.
    const FrequencyPlan flat(4, 4);
    EXPECT_DOUBLE_EQ(flat.channelLossDb(3), 0.0);
    // The profile is part of the plan's identity (reset retiming
    // rebuilds the topology when it changes).
    EXPECT_FALSE(plan == FrequencyPlan(4, 2));
}

TEST(ChannelProfile, ExtraLossShiftsTheAttenuationMatrix)
{
    wisync::wireless::RfChannelConfig base;
    wisync::wireless::RfChannelConfig shifted = base;
    shifted.extraLossDb = 12.0;
    const wisync::wireless::RfChannelModel a(16, base);
    const wisync::wireless::RfChannelModel b(16, shifted);
    for (std::uint32_t tx = 0; tx < 16; tx += 5)
        for (std::uint32_t rx = 0; rx < 16; rx += 3)
            EXPECT_DOUBLE_EQ(b.pathLossDb(tx, rx),
                             a.pathLossDb(tx, rx) + 12.0);
    EXPECT_DOUBLE_EQ(b.snrDb(0, 15), a.snrDb(0, 15) - 12.0);
}

TEST(ChannelProfile, ChipsSharingASlotShareItsPhysics)
{
    // 4 chips over 2 slots: chips {0,2} on slot 0, {1,3} on slot 1.
    // A steep per-slot step at marginal transmit power separates the
    // two slots' drop rates while keeping slot-mates identical.
    Engine engine;
    WirelessConfig wcfg;
    wcfg.berFromSnr = true;
    wcfg.txPowerDbm = 0.0;
    wcfg.spectrumSlots = 2;
    wcfg.channelLossStepDb = 6.0;
    BmSystem bm(engine, 16, BmConfig{}, wcfg, Rng(99), true, 4);
    ASSERT_EQ(bm.channelCount(), 2u);
    // Channel-local id 0 is chip 0's transmitter 0 on channel 0 and
    // chip 1's transmitter 0 on channel 1; the slot-1 profile adds
    // 6 dB, so its loss must be strictly worse.
    const double slot0 = bm.dataChannel(0).dropProbability(0, false);
    const double slot1 = bm.dataChannel(1).dropProbability(0, false);
    EXPECT_GT(slot1, slot0);
    // Slot-mates (chips 0 and 2 on channel 0) see identical physics:
    // same geometry, same profile -> same per-transmitter rate.
    const std::uint32_t chip2_first = 1 * 4; // coresPerChip = 4
    EXPECT_DOUBLE_EQ(
        bm.dataChannel(0).dropProbability(chip2_first, false), slot0);
}

TEST(ChannelProfile, ProfileSpreadIsDeterministicAndVisible)
{
    auto tweak_for = [](double step) {
        return [step](MachineConfig &cfg) {
            cfg.numChips = 4;
            cfg.wireless.spectrumSlots = 2;
            cfg.wireless.berFromSnr = true;
            cfg.wireless.txPowerDbm = 0.0;
            cfg.wireless.channelLossStepDb = step;
        };
    };
    const auto flat = runTweaked(ConfigKind::WiSync, 32, 4,
                                 tweak_for(0.0));
    const auto spread = runTweaked(ConfigKind::WiSync, 32, 4,
                                   tweak_for(8.0));
    ASSERT_TRUE(flat.completed);
    ASSERT_TRUE(spread.completed);
    // The profile moves real loss into the high slots.
    EXPECT_GT(spread.wirelessDrops, flat.wirelessDrops);
    const auto replay = runTweaked(ConfigKind::WiSync, 32, 4,
                                   tweak_for(8.0));
    EXPECT_TRUE(wisync::workloads::bitIdentical(spread, replay));
}

// ---------------------------------------------------------------------
// The lossy ChipBridge.

TEST(BridgeLoss, IdealBridgeDrawsNothing)
{
    Engine eng;
    ChipBridge bridge(eng, {});
    EXPECT_FALSE(bridge.lossy());
    // Burst knobs without a reachable loss state stay ideal too.
    BridgeConfig cfg;
    cfg.burst.enabled = true;
    ChipBridge clean(eng, cfg);
    EXPECT_FALSE(clean.lossy());
}

/** Post a frame whose delivery calls @p deliver, which outlives it. */
template <typename F>
void
postCalling(wisync::noc::ChipBridge &bridge, std::uint32_t bits, F &deliver)
{
    bridge.post(bits, [](void *d) { (*static_cast<F *>(d))(); }, &deliver);
}

TEST(BridgeLoss, AlternatingChainRetryTiming)
{
    Engine eng;
    BridgeConfig cfg;
    cfg.latencyCycles = 10;
    cfg.widthBits = 64;
    cfg.headerBits = 32;
    cfg.burst = alternatingChain();
    cfg.ackTimeoutCycles = 4;
    cfg.maxRetries = 8;
    cfg.retryBackoffMaxExp = 6;
    ChipBridge bridge(eng, cfg);
    bridge.setRng(Rng(1));
    ASSERT_TRUE(bridge.lossy());

    // 96 bits over 64-bit width = 2 serialization cycles. Attempt 1
    // (0..2) enters Bad -> drop; retry waits ack 4 + 2^1 = 6, so the
    // retransmission starts at 8, serializes 8..10, leaves Bad ->
    // delivers at 10 + 10.
    Cycle arrived = 0;
    auto arrive = [&] { arrived = eng.now(); };
    postCalling(bridge, 64, arrive);
    eng.run();
    EXPECT_EQ(arrived, 20u);
    EXPECT_EQ(bridge.stats().frames.value(), 1u);
    EXPECT_EQ(bridge.stats().busyCycles.value(), 4u);
    EXPECT_EQ(bridge.stats().drops.value(), 1u);
    EXPECT_EQ(bridge.stats().ackTimeouts.value(), 1u);
    EXPECT_EQ(bridge.stats().retransmits.value(), 1u);
    EXPECT_EQ(bridge.stats().giveUps.value(), 0u);
    EXPECT_TRUE(bridge.dropAccountingConsistent());
}

TEST(BridgeLoss, GiveUpReissuesInsteadOfLosingTheFrame)
{
    Engine eng;
    BridgeConfig cfg;
    cfg.latencyCycles = 10;
    cfg.widthBits = 64;
    cfg.headerBits = 32;
    cfg.burst = alternatingChain();
    cfg.ackTimeoutCycles = 4;
    cfg.maxRetries = 0; // every drop exhausts the budget immediately
    ChipBridge bridge(eng, cfg);
    bridge.setRng(Rng(1));

    // Attempt 1 (0..2) drops; the budget is spent, so only the final
    // ack window (4) passes before the give-up re-issues at 6; the
    // re-issue serializes 6..8, leaves Bad -> delivers at 8 + 10.
    Cycle arrived = 0;
    auto arrive = [&] { arrived = eng.now(); };
    postCalling(bridge, 64, arrive);
    eng.run();
    EXPECT_EQ(arrived, 18u);
    EXPECT_EQ(bridge.stats().drops.value(), 1u);
    EXPECT_EQ(bridge.stats().ackTimeouts.value(), 1u);
    EXPECT_EQ(bridge.stats().retransmits.value(), 0u);
    EXPECT_EQ(bridge.stats().giveUps.value(), 1u);
    EXPECT_EQ(bridge.stats().reissues.value(), 1u);
    EXPECT_TRUE(bridge.dropAccountingConsistent());
}

TEST(BridgeLoss, EveryPostedFrameEventuallyDelivers)
{
    Engine eng;
    BridgeConfig cfg;
    cfg.lossPct = 50.0;
    cfg.maxRetries = 1;
    ChipBridge bridge(eng, cfg);
    bridge.setRng(Rng(99));
    int delivered = 0;
    for (int i = 0; i < 50; ++i)
        bridge.post(
            64, [](void *n) { ++*static_cast<int *>(n); }, &delivered);
    eng.run();
    // Never silently lost: give-ups re-issue until the link delivers.
    EXPECT_EQ(delivered, 50);
    EXPECT_GE(bridge.stats().drops.value(), 1u);
    EXPECT_TRUE(bridge.dropAccountingConsistent());
}

TEST(BridgeLoss, ResetRecyclesInFlightStateAndChain)
{
    Engine eng;
    BridgeConfig cfg;
    cfg.burst = alternatingChain();
    ChipBridge bridge(eng, cfg);
    bridge.setRng(Rng(3));
    bridge.post(64, [](void *) {}, nullptr);
    // Mid-flight (the first attempt dropped, retry pending): reset.
    eng.run(1);
    EXPECT_TRUE(bridge.burstBad());
    eng.reset();
    bridge.reset(cfg);
    bridge.setRng(Rng(3));
    EXPECT_FALSE(bridge.burstBad());
    EXPECT_EQ(bridge.stats().frames.value(), 0u);
    // The recycled pool serves the next generation identically.
    Cycle arrived = 0;
    auto arrive = [&] { arrived = eng.now(); };
    postCalling(bridge, 64, arrive);
    eng.run();
    EXPECT_GT(arrived, 0u);
    EXPECT_TRUE(bridge.dropAccountingConsistent());
}

// ---------------------------------------------------------------------
// Machine-level bridge loss.

TEST(BridgeLossMachine, LossyBridgeCompletesCoherentlyAt2And4Chips)
{
    for (const std::uint32_t chips : {2u, 4u}) {
        auto tweak = [chips](MachineConfig &cfg) {
            cfg.numChips = chips;
            cfg.bridge.lossPct = 30.0;
        };
        const auto r = runTweaked(ConfigKind::WiSync, 32, 4, tweak);
        ASSERT_TRUE(r.completed) << chips << " chips";
        EXPECT_GE(r.bridgeDrops, 1u) << chips << " chips";
        // The bridge-level drop-accounting invariant, surfaced
        // machine-wide through KernelResult.
        EXPECT_EQ(r.bridgeDrops, r.bridgeAckTimeouts);
        EXPECT_EQ(r.bridgeAckTimeouts,
                  r.bridgeRetransmits + r.bridgeGiveups);
        // And the replay contract.
        const auto again = runTweaked(ConfigKind::WiSync, 32, 4, tweak);
        EXPECT_TRUE(wisync::workloads::bitIdentical(r, again));
    }
}

TEST(BridgeLossMachine, BridgedUpdatesNeverLostUnderForcedGiveUps)
{
    // maxRetries = 0 turns every bridge drop into a give-up + re-issue;
    // the global barrier still releases every round and the replicas
    // converge — the "never silently lost" contract end to end.
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 32);
    cfg.numChips = 2;
    cfg.bridge.lossPct = 50.0;
    cfg.bridge.maxRetries = 0;
    Machine m(cfg);
    wisync::workloads::TightLoopParams p;
    p.iterations = 4;
    p.arrayElems = 8;
    const auto r = wisync::workloads::runTightLoopOn(m, p);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.bridgeGiveups, 1u);
    EXPECT_EQ(r.bridgeRetransmits, 0u);
    EXPECT_EQ(r.bridgeDrops, r.bridgeGiveups);
    EXPECT_TRUE(
        m.bm()->storeArray().replicasConsistent(cfg.coresPerChip()));
}

TEST(BridgeLossMachine, IdealBridgeKnobsAreByteIdentical)
{
    // Odd reliability knobs on a loss-free bridge are dead state: the
    // multi-chip run cannot move a cycle (the ideal-bridge identity).
    auto base_tweak = [](MachineConfig &cfg) { cfg.numChips = 2; };
    auto odd_tweak = [](MachineConfig &cfg) {
        cfg.numChips = 2;
        cfg.bridge.ackTimeoutCycles = 17;
        cfg.bridge.maxRetries = 2;
        cfg.bridge.retryBackoffMaxExp = 1;
    };
    const auto base = runTweaked(ConfigKind::WiSync, 32, 4, base_tweak);
    const auto odd = runTweaked(ConfigKind::WiSync, 32, 4, odd_tweak);
    ASSERT_TRUE(base.completed);
    EXPECT_TRUE(wisync::workloads::bitIdentical(base, odd));
    EXPECT_EQ(base.bridgeDrops, 0u);
}

TEST(BridgeLossMachine, FreshVsResetIdenticalUnderBridgeLoss)
{
    auto tweak = [](MachineConfig &cfg) {
        cfg.numChips = 4;
        cfg.bridge.burst = BurstParams::fromMean(50.0, 2.0);
    };
    const auto fresh = runTweaked(ConfigKind::WiSync, 32, 4, tweak);
    Machine persistent(MachineConfig::make(ConfigKind::WiSync, 32));
    const auto reused =
        runTweaked(ConfigKind::WiSync, 32, 4, tweak, &persistent);
    ASSERT_TRUE(fresh.completed);
    EXPECT_TRUE(wisync::workloads::bitIdentical(fresh, reused));
    EXPECT_GE(fresh.bridgeDrops, 1u);
}

TEST(BridgeLossMachine, CombinedBurstAndBridgeLossKeepBothInvariants)
{
    // Satellite audit: bursty channel draws AND bridge drops active in
    // one run — both reliability layers keep their separate books.
    auto tweak = [](MachineConfig &cfg) {
        cfg.numChips = 2;
        cfg.wireless.burst = BurstParams::fromMean(15.0, 4.0);
        cfg.bridge.lossPct = 25.0;
    };
    const auto r = runTweaked(ConfigKind::WiSync, 32, 4, tweak);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.wirelessDrops, 1u);
    EXPECT_GE(r.bridgeDrops, 1u);
    EXPECT_EQ(r.wirelessDrops, r.macAckTimeouts);
    EXPECT_EQ(r.macAckTimeouts, r.macRetransmits + r.macGiveups);
    EXPECT_EQ(r.bridgeDrops, r.bridgeAckTimeouts);
    EXPECT_EQ(r.bridgeAckTimeouts,
              r.bridgeRetransmits + r.bridgeGiveups);
}

// ---------------------------------------------------------------------
// describe() labels.

TEST(BurstDescribe, BridgeKnobsAlwaysPrintOnMultiChipConfigs)
{
    // The bugfix: two multi-chip sweep points differing only in bridge
    // config used to print identical labels.
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 64);
    EXPECT_EQ(cfg.describe().find("bridge="), std::string::npos);
    cfg.numChips = 4;
    EXPECT_NE(cfg.describe().find("bridge=lat24,w64"),
              std::string::npos);
    auto other = cfg;
    other.bridge.latencyCycles = 48;
    EXPECT_NE(cfg.describe(), other.describe());
    auto wider = cfg;
    wider.bridge.widthBits = 128;
    EXPECT_NE(cfg.describe(), wider.describe());
}

TEST(BurstDescribe, BridgeLossKnobsPrintOnlyWhenLossy)
{
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 64);
    cfg.numChips = 2;
    EXPECT_EQ(cfg.describe().find("bloss="), std::string::npos);
    cfg.bridge.lossPct = 20.0;
    cfg.bridge.maxRetries = 3;
    const auto label = cfg.describe();
    EXPECT_NE(label.find("bloss=20%"), std::string::npos);
    auto other = cfg;
    other.bridge.maxRetries = 5;
    EXPECT_NE(label, other.describe());
    cfg.bridge.burst = BurstParams::fromMean(10.0, 4.0);
    EXPECT_NE(cfg.describe().find("bburst="), std::string::npos);
}

TEST(BurstDescribe, BurstAndProfileKnobsOnlyOffTheDefaults)
{
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 64);
    EXPECT_EQ(cfg.describe().find("burst="), std::string::npos);
    EXPECT_EQ(cfg.describe().find("chloss="), std::string::npos);
    cfg.wireless.burst = BurstParams::fromMean(10.0, 4.0);
    cfg.wireless.channelLossBaseDb = 2.0;
    cfg.wireless.channelLossStepDb = 3.0;
    const auto label = cfg.describe();
    EXPECT_NE(label.find("burst=g0%/b100%"), std::string::npos);
    EXPECT_NE(label.find("chloss=2+3dB"), std::string::npos);
    auto other = cfg;
    other.wireless.burst.pBadToGood = 0.5;
    EXPECT_NE(label, other.describe());
}

} // namespace
