/**
 * @file
 * Tests for the lossy wireless channel model and the ack/timeout/
 * bounded-retry reliability layer.
 *
 * Four layers:
 *  - channel-level drop semantics on a bare engine + channel harness
 *    (slot consumption, all-or-nothing delivery, probability
 *    composition of the uniform knob with the SNR-derived table);
 *  - the ack/retry state machine's exact timing (give-up waits only
 *    the final ack window, bounded exponential spacing, maxRetries
 *    accounting) and the telemetry invariant
 *    drops == ackTimeouts == retransmits + giveUps;
 *  - BM-controller degradation: a give-up on an RMW rides the AFB
 *    contract, a give-up on a plain store is re-issued (never lost,
 *    never a hang), spinners always wake;
 *  - machine-level contracts: lossPct = 0 with the loss layer compiled
 *    in (even with odd ack knobs) is bit-identical to the golden
 *    runs, lossy runs are seed-deterministic across repeats and
 *    fresh-vs-reset, and every MacKind terminates
 *    under loss with the give-up bound respected.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "bm/bm_system.hh"
#include "core/machine.hh"
#include "coro/primitives.hh"
#include "sim/engine.hh"
#include "sim/rng.hh"
#include "wireless/data_channel.hh"
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
using wisync::sim::BmAddr;
using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::sim::NodeId;
using wisync::sim::Pid;
using wisync::sim::Rng;
using wisync::wireless::DataChannel;
using wisync::wireless::Mac;
using wisync::wireless::MacKind;
using wisync::wireless::MacProtocol;
using wisync::wireless::SendOutcome;
using wisync::wireless::WirelessConfig;
using wisync::workloads::KernelResult;

constexpr Pid kPid = 1;

constexpr MacKind kAllMacs[] = {MacKind::Brs, MacKind::Token,
                                MacKind::FuzzyToken, MacKind::Adaptive};

/** Bare harness with a configurable (lossy) channel. */
struct LossyNet
{
    LossyNet(std::uint32_t nodes, const WirelessConfig &cfg)
        : channel(engine, cfg),
          protocol(wisync::wireless::makeMacProtocol(cfg, engine, channel,
                                                     nodes))
    {
        wisync::sim::Rng seeder(4242);
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

/** BM chip on a configurable channel, region pre-tagged for kPid. */
struct LossChip
{
    explicit LossChip(std::uint32_t nodes, const WirelessConfig &wcfg,
                      bool tone = true)
        : bm(engine, nodes, BmConfig{}, wcfg, Rng(99), tone)
    {
        for (BmAddr a = 0; a < 128; ++a)
            bm.storeArray().setTag(a, kPid);
    }

    Engine engine;
    BmSystem bm;
};

/** TightLoop on a WiSyncNoT/WiSync machine with tweaked wireless cfg. */
KernelResult
runLossyTight(ConfigKind kind, MacKind mac, std::uint32_t cores,
              std::uint32_t iterations,
              const std::function<void(WirelessConfig &)> &tweak,
              Machine *reuse = nullptr)
{
    auto cfg = MachineConfig::make(kind, cores);
    cfg.wireless.macKind = mac;
    tweak(cfg.wireless);
    std::unique_ptr<Machine> owned;
    if (reuse != nullptr)
        reuse->reset(cfg);
    else
        owned = std::make_unique<Machine>(cfg);
    Machine &m = reuse != nullptr ? *reuse : *owned;
    wisync::workloads::TightLoopParams params;
    params.iterations = iterations;
    params.runLimit = 20'000'000;
    return wisync::workloads::runTightLoopOn(m, params);
}

// ---- Channel-level drop semantics ---------------------------------

TEST(LossChannel, IdealChannelDrawsNothing)
{
    Engine engine;
    DataChannel channel(engine, WirelessConfig{});
    EXPECT_FALSE(channel.lossy());
    EXPECT_DOUBLE_EQ(channel.dropProbability(0, false), 0.0);
    EXPECT_DOUBLE_EQ(channel.dropProbability(0, true), 0.0);
}

TEST(LossChannel, DropProbabilityComposesUniformAndSnrTable)
{
    Engine engine;
    WirelessConfig cfg;
    cfg.lossPct = 50.0;
    DataChannel channel(engine, cfg);
    EXPECT_TRUE(channel.lossy());
    channel.setDropTable({0.5, 0.0}, {0.2, 0.0});
    // Independent corruption sources: survival probabilities multiply.
    EXPECT_DOUBLE_EQ(channel.dropProbability(0, false), 0.75);
    EXPECT_DOUBLE_EQ(channel.dropProbability(1, false), 0.5);
    EXPECT_DOUBLE_EQ(channel.dropProbability(0, true), 0.6);

    // A drop table alone (berFromSnr without the uniform knob) also
    // arms the loss machinery; clearing it disarms.
    Engine engine2;
    DataChannel snr_only(engine2, WirelessConfig{});
    EXPECT_FALSE(snr_only.lossy());
    snr_only.setDropTable({0.1}, {0.1});
    EXPECT_TRUE(snr_only.lossy());
    snr_only.setDropTable({}, {});
    EXPECT_FALSE(snr_only.lossy());
}

TEST(LossChannel, ResetClearsDropTableAndLossState)
{
    Engine engine;
    WirelessConfig cfg;
    cfg.lossPct = 25.0;
    DataChannel channel(engine, cfg);
    channel.setDropTable({0.5}, {0.5});
    channel.reset(WirelessConfig{});
    EXPECT_FALSE(channel.lossy());
    EXPECT_DOUBLE_EQ(channel.dropProbability(0, false), 0.0);
}

TEST(LossChannel, DropConsumesTheSlotButNeverDelivers)
{
    WirelessConfig cfg;
    cfg.lossPct = 100.0;
    cfg.maxRetries = 0;
    LossyNet net(4, cfg);
    bool delivered = false;
    SendOutcome out = SendOutcome::Delivered;
    spawnNow(net.engine, [&]() -> Task<void> {
        out = co_await net.macs[0]->send(false,
                                         [&] { delivered = true; });
    });
    ASSERT_TRUE(net.engine.run(1'000));
    EXPECT_FALSE(delivered);
    EXPECT_EQ(out, SendOutcome::GaveUp);
    // The corrupted transmission still occupied the air for a full
    // message: the slot is consumed, the drop is counted.
    EXPECT_EQ(net.channel.stats().messages.value(), 1u);
    EXPECT_EQ(net.channel.stats().drops.value(), 1u);
    EXPECT_EQ(net.channel.stats().busyCycles.value(), 5u);
}

TEST(LossChannel, EverySendDeliveredOrReportedUnderHeavyLoss)
{
    WirelessConfig cfg;
    cfg.lossPct = 40.0;
    LossyNet net(8, cfg);
    int delivered = 0, gaveup = 0, callbacks = 0;
    auto sender = [&](int mac) -> Task<void> {
        for (int i = 0; i < 5; ++i) {
            const auto out =
                co_await net.macs[static_cast<std::size_t>(mac)]->send(
                    false, [&] { ++callbacks; });
            if (out == SendOutcome::Delivered)
                ++delivered;
            else if (out == SendOutcome::GaveUp)
                ++gaveup;
        }
    };
    for (int m = 0; m < 8; ++m)
        spawnNow(net.engine, sender, m);
    ASSERT_TRUE(net.engine.run(10'000'000));
    // Typed completion for every send: nothing hangs, nothing is
    // silently lost.
    EXPECT_EQ(delivered + gaveup, 40);
    EXPECT_EQ(callbacks, delivered);
    EXPECT_GE(net.channel.stats().drops.value(), 1u);
    // Every drop is answered by exactly one expired ack window, which
    // ends in exactly one retransmission or give-up.
    const auto &s = net.protocol->stats();
    EXPECT_EQ(s.ackTimeouts.value(), net.channel.stats().drops.value());
    EXPECT_EQ(s.ackTimeouts.value(),
              s.retransmits.value() + s.giveUps.value());
    EXPECT_EQ(s.giveUps.value(), static_cast<std::uint64_t>(gaveup));
}

TEST(LossChannel, LossyRunsAreSeedDeterministic)
{
    auto run = [] {
        WirelessConfig cfg;
        cfg.lossPct = 30.0;
        LossyNet net(16, cfg);
        auto sender = [&](int mac) -> Task<void> {
            for (int i = 0; i < 5; ++i)
                co_await net.macs[static_cast<std::size_t>(mac)]->send(
                    false, [] {});
        };
        for (int m = 0; m < 16; ++m)
            spawnNow(net.engine, sender, m);
        EXPECT_TRUE(net.engine.run(10'000'000));
        EXPECT_GE(net.channel.stats().drops.value(), 1u);
        return std::pair{net.engine.now(),
                         net.channel.stats().drops.value()};
    };
    EXPECT_EQ(run(), run());
}

// ---- Ack/timeout/bounded-retry timing -----------------------------

TEST(AckRetryTiming, GiveUpWaitsOnlyTheFinalAckWindow)
{
    WirelessConfig cfg;
    cfg.lossPct = 100.0;
    cfg.maxRetries = 0;
    cfg.ackTimeoutCycles = 4;
    LossyNet net(2, cfg);
    Cycle done = 0;
    spawnNow(net.engine, [&]() -> Task<void> {
        co_await net.macs[0]->send(false, [] {});
        done = net.engine.now();
    });
    ASSERT_TRUE(net.engine.run(1'000));
    // 5-cycle transmission + the 4-cycle ack window; no backoff is
    // added when no retransmission follows.
    EXPECT_EQ(done, 9u);
    const auto &s = net.protocol->stats();
    EXPECT_EQ(s.ackTimeouts.value(), 1u);
    EXPECT_EQ(s.ackWaitCycles.value(), 4u);
    EXPECT_EQ(s.retransmits.value(), 0u);
    EXPECT_EQ(s.giveUps.value(), 1u);
}

TEST(AckRetryTiming, BoundedExponentialBackoffSchedule)
{
    WirelessConfig cfg;
    cfg.lossPct = 100.0;
    cfg.maxRetries = 2;
    cfg.ackTimeoutCycles = 4;
    cfg.retryBackoffMaxExp = 1;
    LossyNet net(2, cfg);
    Cycle done = 0;
    spawnNow(net.engine, [&]() -> Task<void> {
        co_await net.macs[0]->send(false, [] {});
        done = net.engine.now();
    });
    ASSERT_TRUE(net.engine.run(1'000));
    // tx 0..5, wait 4+2 (exp capped at 1); tx 11..16, wait 4+2;
    // tx 22..27, final ack window 4 -> give up at 31.
    EXPECT_EQ(done, 31u);
    EXPECT_EQ(net.channel.stats().messages.value(), 3u);
    EXPECT_EQ(net.channel.stats().drops.value(), 3u);
    const auto &s = net.protocol->stats();
    EXPECT_EQ(s.ackTimeouts.value(), 3u);
    EXPECT_EQ(s.ackWaitCycles.value(), 6u + 6u + 4u);
    EXPECT_EQ(s.retransmits.value(), 2u);
    EXPECT_EQ(s.giveUps.value(), 1u);
}

TEST(AckRetryTiming, MaxRetriesBoundsTransmissionCount)
{
    WirelessConfig cfg;
    cfg.lossPct = 100.0;
    cfg.maxRetries = 4;
    cfg.ackTimeoutCycles = 4;
    cfg.retryBackoffMaxExp = 0;
    LossyNet net(2, cfg);
    Cycle done = 0;
    spawnNow(net.engine, [&]() -> Task<void> {
        co_await net.macs[0]->send(false, [] {});
        done = net.engine.now();
    });
    ASSERT_TRUE(net.engine.run(1'000));
    // maxRetries + 1 transmissions of 5 cycles, 4 retry waits of
    // 4 + 2^0 and the final 4-cycle ack window.
    EXPECT_EQ(net.channel.stats().messages.value(), 5u);
    EXPECT_EQ(done, 5u * 5u + 4u * 5u + 4u);
    const auto &s = net.protocol->stats();
    EXPECT_EQ(s.retransmits.value(), 4u);
    EXPECT_EQ(s.giveUps.value(), 1u);
}

TEST(AckRetryTiming, PartialLossKeepsTheTelemetryInvariant)
{
    WirelessConfig cfg;
    cfg.lossPct = 60.0;
    cfg.maxRetries = 3;
    LossyNet net(4, cfg);
    auto sender = [&](int mac) -> Task<void> {
        for (int i = 0; i < 3; ++i)
            co_await net.macs[static_cast<std::size_t>(mac)]->send(
                false, [] {});
    };
    for (int m = 0; m < 4; ++m)
        spawnNow(net.engine, sender, m);
    ASSERT_TRUE(net.engine.run(10'000'000));
    const auto &s = net.protocol->stats();
    EXPECT_GE(net.channel.stats().drops.value(), 1u);
    EXPECT_EQ(s.ackTimeouts.value(), net.channel.stats().drops.value());
    EXPECT_EQ(s.ackTimeouts.value(),
              s.retransmits.value() + s.giveUps.value());
}

// ---- BM-controller degradation ------------------------------------

TEST(LossBmSystem, RmwGiveUpSurfacesAsAtomicityFailure)
{
    WirelessConfig wcfg;
    wcfg.lossPct = 100.0;
    wcfg.maxRetries = 0;
    LossChip chip(4, wcfg);
    wisync::bm::RmwResult r;
    spawnNow(chip.engine, [&]() -> Task<void> {
        r = co_await chip.bm.rmw(0, kPid, 3, wisync::bm::RmwOp::FetchAdd,
                                 1);
    });
    ASSERT_TRUE(chip.engine.run(1'000'000));
    // The give-up rides the AFB contract: the instruction completes,
    // nothing was broadcast, no replica changed — software retries.
    EXPECT_TRUE(r.atomicityFailed);
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(chip.bm.storeArray().read(n, 3), 0u);
    EXPECT_TRUE(chip.bm.storeArray().replicasConsistent());
    EXPECT_GE(chip.bm.macProtocol().stats().giveUps.value(), 1u);
}

TEST(LossBmSystem, PlainStoreGiveUpIsReissuedNeverLost)
{
    WirelessConfig wcfg;
    wcfg.lossPct = 90.0;
    wcfg.maxRetries = 0;
    LossChip chip(4, wcfg);
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.bm.store(0, kPid, 5, 7);
    });
    ASSERT_TRUE(chip.engine.run(10'000'000));
    // A plain store has no AFB to surface through: the controller
    // re-issues until the broadcast lands, and counts the re-issues.
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(chip.bm.storeArray().read(n, 5), 7u);
    EXPECT_TRUE(chip.bm.storeArray().replicasConsistent());
    EXPECT_GE(chip.bm.stats().sendReissues.value(), 1u);
    EXPECT_GE(chip.bm.macProtocol().stats().giveUps.value(), 1u);
}

TEST(LossBmSystem, SpinnerAlwaysWakesUnderLoss)
{
    WirelessConfig wcfg;
    wcfg.lossPct = 80.0;
    LossChip chip(4, wcfg);
    std::uint64_t seen = 0;
    spawnNow(chip.engine, [&]() -> Task<void> {
        co_await chip.bm.store(0, kPid, 7, 42);
    });
    spawnNow(chip.engine, [&]() -> Task<void> {
        seen = co_await chip.bm.spinWhile(2, kPid, 7, 0);
    });
    // A dropped broadcast delivers at no node (all-or-nothing), so the
    // spinner cannot observe a half-written value, and the retry/
    // re-issue machinery guarantees the wakeup eventually arrives.
    ASSERT_TRUE(chip.engine.run(10'000'000));
    EXPECT_EQ(seen, 42u);
    EXPECT_TRUE(chip.bm.storeArray().replicasConsistent());
    EXPECT_GE(chip.bm.dataChannel().stats().drops.value(), 1u);
}

TEST(LossBmSystem, SnrModelInstallsPerTransmitterDropTable)
{
    WirelessConfig wcfg;
    wcfg.berFromSnr = true;
    LossChip chip(16, wcfg);
    ASSERT_NE(chip.bm.rfChannelModel(), nullptr);
    EXPECT_TRUE(chip.bm.dataChannel().lossy());
    // At the default transmit power every in-package link has tens of
    // dB of SNR margin: the derived loss is negligible.
    EXPECT_LT(chip.bm.dataChannel().dropProbability(0, false), 1e-6);

    // Without berFromSnr no model is built and the channel is ideal.
    LossChip ideal(16, WirelessConfig{});
    EXPECT_EQ(ideal.bm.rfChannelModel(), nullptr);
    EXPECT_FALSE(ideal.bm.dataChannel().lossy());
}

TEST(LossBmSystem, LinkOverrideWalksOneTransmitterIntoLoss)
{
    WirelessConfig wcfg;
    wcfg.berFromSnr = true;
    LossChip chip(4, wcfg);
    chip.bm.overrideLinkPathLoss(0, 1, 150.0);
    // Node 0's broadcasts now die at receiver 1 (all-or-nothing:
    // the whole transmission is void); other transmitters are clean.
    EXPECT_GT(chip.bm.dataChannel().dropProbability(0, false), 0.99);
    EXPECT_LT(chip.bm.dataChannel().dropProbability(1, false), 1e-6);
}

// ---- Machine-level contracts --------------------------------------

TEST(LossMachine, Loss0WithOddAckKnobsMatchesGoldenRun)
{
    // The hard invariant, pinned to the pre-loss golden numbers: the
    // reliability layer compiled in but disabled — even with every
    // ack/retry knob moved off its default — cannot move a cycle.
    const auto r = runLossyTight(ConfigKind::WiSyncNoT, MacKind::Brs, 16,
                                 8, [](WirelessConfig &w) {
                                     w.lossPct = 0.0;
                                     w.ackTimeoutCycles = 11;
                                     w.maxRetries = 1;
                                     w.retryBackoffMaxExp = 2;
                                 });
    EXPECT_EQ(r.cycles, 5984u);
    EXPECT_EQ(r.wirelessDrops, 0u);
    EXPECT_EQ(r.macAckTimeouts, 0u);
    EXPECT_EQ(r.macRetransmits, 0u);
    EXPECT_EQ(r.macGiveups, 0u);

    const auto base = runLossyTight(ConfigKind::WiSyncNoT, MacKind::Brs,
                                    16, 8, [](WirelessConfig &) {});
    EXPECT_TRUE(wisync::workloads::bitIdentical(base, r));
}

class LossMachineKinds : public ::testing::TestWithParam<MacKind>
{};

INSTANTIATE_TEST_SUITE_P(Kinds, LossMachineKinds,
                         ::testing::ValuesIn(kAllMacs));

TEST_P(LossMachineKinds, LossyRunTerminatesDeterministically)
{
    auto tweak = [](WirelessConfig &w) { w.lossPct = 25.0; };
    const auto a = runLossyTight(ConfigKind::WiSyncNoT, GetParam(), 16,
                                 5, tweak);
    const auto b = runLossyTight(ConfigKind::WiSyncNoT, GetParam(), 16,
                                 5, tweak);
    ASSERT_TRUE(a.completed);
    EXPECT_TRUE(wisync::workloads::bitIdentical(a, b));
    EXPECT_GE(a.wirelessDrops, 1u);
    // Every drop -> one expired ack window -> one retransmission or
    // give-up; nothing is silently lost.
    EXPECT_EQ(a.wirelessDrops, a.macAckTimeouts);
    EXPECT_EQ(a.macAckTimeouts, a.macRetransmits + a.macGiveups);
}

TEST_P(LossMachineKinds, FreshVsResetIdenticalUnderLoss)
{
    auto tweak = [](WirelessConfig &w) { w.lossPct = 25.0; };
    const auto fresh = runLossyTight(ConfigKind::WiSyncNoT, GetParam(),
                                     16, 4, tweak);
    Machine persistent(MachineConfig::make(ConfigKind::WiSyncNoT, 16));
    const auto reused = runLossyTight(ConfigKind::WiSyncNoT, GetParam(),
                                      16, 4, tweak, &persistent);
    ASSERT_TRUE(fresh.completed);
    EXPECT_TRUE(wisync::workloads::bitIdentical(fresh, reused));
}

TEST(LossMachine, ToneConfigCompletesUnderLoss)
{
    // The tone-barrier announcement path (cancellable, re-issued on
    // give-up) must never lose a wakeup under a lossy channel.
    const auto r = runLossyTight(ConfigKind::WiSync, MacKind::Brs, 16, 4,
                                 [](WirelessConfig &w) {
                                     w.lossPct = 30.0;
                                 });
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.wirelessDrops, 1u);
    EXPECT_EQ(r.wirelessDrops, r.macAckTimeouts);
}

TEST(LossMachine, GiveUpsSurfaceWithoutHanging)
{
    // maxRetries = 0 turns every drop into a typed give-up; the
    // kernel still terminates (AFB retries + store re-issue).
    const auto r = runLossyTight(ConfigKind::WiSyncNoT, MacKind::Brs, 16,
                                 4, [](WirelessConfig &w) {
                                     w.lossPct = 60.0;
                                     w.maxRetries = 0;
                                 });
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.macGiveups, 1u);
    EXPECT_EQ(r.macRetransmits, 0u);
    EXPECT_EQ(r.wirelessDrops, r.macGiveups);
}

TEST(LossMachine, SnrDerivedLossIsDeterministic)
{
    auto tweak = [](WirelessConfig &w) {
        w.berFromSnr = true;
        // Leaves the corner transmitters' farthest links marginal
        // while central nodes stay clean — the heterogeneous regime.
        w.txPowerDbm = 0.0;
    };
    const auto a = runLossyTight(ConfigKind::WiSyncNoT, MacKind::Brs, 16,
                                 8, tweak);
    const auto b = runLossyTight(ConfigKind::WiSyncNoT, MacKind::Brs, 16,
                                 8, tweak);
    ASSERT_TRUE(a.completed);
    EXPECT_TRUE(wisync::workloads::bitIdentical(a, b));
    EXPECT_GE(a.wirelessDrops, 1u);
}

} // namespace
