/**
 * @file
 * Tests for the pluggable MAC subsystem (wireless/mac/).
 *
 * Three layers:
 *  - golden bit-identity: with MacKind::Brs (the default) the channel
 *    statistics of whole-machine runs are pinned to the values the
 *    pre-refactor hard-coded MAC produced, so the extraction is
 *    provably behavior-preserving;
 *  - protocol-level properties on a bare engine + channel harness
 *    (token exclusivity, ring-order grants, hold-window timing,
 *    fuzzy deterministic resolution, adaptive switching);
 *  - machine-level contracts for every MacKind: determinism across
 *    repeats, fresh-vs-reset equivalence, protocol swapping through
 *    Machine::reset, and thread-count independence through
 *    harness::ParallelSweep.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/machine.hh"
#include "coro/primitives.hh"
#include "harness/parallel_sweep.hh"
#include "sim/engine.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "workloads/cas_kernels.hh"
#include "workloads/tight_loop.hh"
#include "wireless/data_channel.hh"
#include "wireless/mac/adaptive_mac.hh"
#include "wireless/mac/brs_mac.hh"
#include "wireless/mac/fuzzy_token_mac.hh"
#include "wireless/mac/mac_protocol.hh"
#include "wireless/mac/token_mac.hh"
#include "wireless/rf_model.hh"

namespace {

using wisync::coro::delay;
using wisync::coro::spawnNow;
using wisync::coro::Task;
using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::wireless::DataChannel;
using wisync::wireless::Mac;
using wisync::wireless::MacKind;
using wisync::wireless::MacProtocol;
using wisync::wireless::WirelessConfig;
using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::workloads::KernelResult;

constexpr MacKind kAllMacs[] = {MacKind::Brs, MacKind::Token,
                                MacKind::FuzzyToken, MacKind::Adaptive};

/** Bare-metal harness: engine + channel + one protocol + N MACs. */
struct ProtoNet
{
    ProtoNet(std::uint32_t nodes, const WirelessConfig &cfg)
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

/** Run TightLoop on a machine configured with @p mac. */
KernelResult
runTight(ConfigKind kind, MacKind mac, std::uint32_t cores,
         std::uint32_t iterations, Machine *reuse = nullptr)
{
    auto cfg = MachineConfig::make(kind, cores);
    cfg.wireless.macKind = mac;
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

// ---- Golden bit-identity of the extracted BRS ---------------------
//
// The pinned numbers were captured from the pre-refactor tree (the
// hard-coded exponential-backoff Mac in data_channel.cc) and must
// never drift: MacKind::Brs is the paper's §5.3 scheme and the
// figure benches depend on it byte-for-byte.

TEST(MacProtoGolden, BrsTightLoopWiSyncNoT16MatchesPreRefactor)
{
    Machine m(MachineConfig::make(ConfigKind::WiSyncNoT, 16));
    wisync::workloads::TightLoopParams p;
    p.iterations = 8;
    const auto r = wisync::workloads::runTightLoopOn(m, p);
    EXPECT_EQ(r.cycles, 5984u);
    EXPECT_EQ(r.operations, 8u);
    const auto &ch = m.bm()->dataChannel().stats();
    EXPECT_EQ(ch.messages.value(), 144u);
    EXPECT_EQ(ch.collisions.value(), 55u);
    EXPECT_EQ(ch.busyCycles.value(), 830u);
    std::uint64_t retries = 0;
    for (std::uint32_t n = 0; n < 16; ++n)
        retries += m.bm()->mac(n).retries();
    EXPECT_EQ(retries, 251u);
    EXPECT_EQ(m.bm()->macProtocol().kind(), MacKind::Brs);
}

TEST(MacProtoGolden, BrsTightLoopWiSync32MatchesPreRefactor)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 32));
    wisync::workloads::TightLoopParams p;
    p.iterations = 6;
    const auto r = wisync::workloads::runTightLoopOn(m, p);
    EXPECT_EQ(r.cycles, 3007u);
    const auto &ch = m.bm()->dataChannel().stats();
    EXPECT_EQ(ch.messages.value(), 6u);
    EXPECT_EQ(ch.collisions.value(), 22u);
    EXPECT_EQ(ch.busyCycles.value(), 74u);
    std::uint64_t retries = 0;
    for (std::uint32_t n = 0; n < 32; ++n)
        retries += m.bm()->mac(n).retries();
    EXPECT_EQ(retries, 280u);
}

TEST(MacProtoGolden, BrsCasLifoWiSyncNoT16MatchesPreRefactor)
{
    Machine m(MachineConfig::make(ConfigKind::WiSyncNoT, 16));
    wisync::workloads::CasKernelParams p;
    p.criticalSectionInstr = 128;
    p.duration = 60'000;
    const auto r = wisync::workloads::runCasKernelOn(
        wisync::workloads::CasKernel::Lifo, m, p);
    EXPECT_EQ(r.cycles, 60'000u);
    EXPECT_EQ(r.operations, 2197u);
    const auto &ch = m.bm()->dataChannel().stats();
    EXPECT_EQ(ch.messages.value(), 2197u);
    EXPECT_EQ(ch.collisions.value(), 179u);
    EXPECT_EQ(ch.busyCycles.value(), 11'343u);
    std::uint64_t retries = 0;
    for (std::uint32_t n = 0; n < 16; ++n)
        retries += m.bm()->mac(n).retries();
    EXPECT_EQ(retries, 392u);
}

// ---- TokenMac properties ------------------------------------------

TEST(MacProtoToken, ExclusiveGrantsNeverCollide)
{
    WirelessConfig cfg;
    cfg.macKind = MacKind::Token;
    ProtoNet net(16, cfg);
    int delivered = 0;
    auto sender = [&](int mac) -> Task<void> {
        for (int i = 0; i < 5; ++i)
            co_await net.macs[static_cast<std::size_t>(mac)]->send(
                false, [&] { ++delivered; });
    };
    for (int m = 0; m < 16; ++m)
        spawnNow(net.engine, sender, m);
    ASSERT_TRUE(net.engine.run(10'000'000));
    EXPECT_EQ(delivered, 80);
    EXPECT_EQ(net.channel.stats().collisions.value(), 0u);
    EXPECT_EQ(net.channel.stats().messages.value(), 80u);
    const auto &s = net.protocol->stats();
    EXPECT_GT(s.tokenRotations.value(), 0u);
    EXPECT_GT(s.tokenWaits.value(), 0u);
    EXPECT_EQ(s.backoffCycles.value(), 0u);
}

TEST(MacProtoToken, ParkedTokenCostsRingDistance)
{
    WirelessConfig cfg;
    cfg.macKind = MacKind::Token;
    cfg.tokenPassCycles = 2;
    ProtoNet net(8, cfg);
    Cycle delivered_at = 0;
    // The token parks at node 0; node 3 must fetch it over 3 hops of
    // 2 cycles before its 5-cycle transfer.
    spawnNow(net.engine, [&]() -> Task<void> {
        co_await net.macs[3]->send(
            false, [&] { delivered_at = net.engine.now(); });
    });
    net.engine.run();
    EXPECT_EQ(delivered_at, 3u * 2u + 5u);
    EXPECT_EQ(net.protocol->stats().tokenRotations.value(), 3u);
}

TEST(MacProtoToken, HoldCyclesReserveTheChannelPerGrant)
{
    auto second_delivery = [](std::uint32_t hold) {
        WirelessConfig cfg;
        cfg.macKind = MacKind::Token;
        cfg.tokenHoldCycles = hold;
        ProtoNet net(4, cfg);
        std::vector<Cycle> deliveries;
        auto sender = [&](int mac) -> Task<void> {
            co_await net.macs[static_cast<std::size_t>(mac)]->send(
                false, [&] { deliveries.push_back(net.engine.now()); });
        };
        spawnNow(net.engine, sender, 0);
        spawnNow(net.engine, sender, 1);
        net.engine.run();
        EXPECT_EQ(deliveries.size(), 2u);
        return deliveries.back();
    };
    // hold=0: node 0 delivers at 5, token passes 1 hop (1 cycle),
    // node 1 transmits 6..11. hold=20: the token may not depart
    // before cycle 20, so node 1 transmits 21..26.
    EXPECT_EQ(second_delivery(0), 11u);
    EXPECT_EQ(second_delivery(20), 26u);

    // The parked path honours the window too: node 0 delivers at 5
    // with no waiters and the token parks; node 1 requests at 8
    // (inside the hold window) and must still wait for cycle 20 + the
    // 1-hop pass before its 5-cycle transfer.
    auto parked_delivery = [](std::uint32_t hold) {
        WirelessConfig cfg;
        cfg.macKind = MacKind::Token;
        cfg.tokenHoldCycles = hold;
        ProtoNet net(4, cfg);
        Cycle second = 0;
        spawnNow(net.engine, [&]() -> Task<void> {
            co_await net.macs[0]->send(false, [] {});
        });
        spawnNow(net.engine, [&]() -> Task<void> {
            co_await delay(net.engine, 8);
            co_await net.macs[1]->send(
                false, [&] { second = net.engine.now(); });
        });
        net.engine.run();
        return second;
    };
    EXPECT_EQ(parked_delivery(0), 14u);  // 8 + 1 hop + 5
    EXPECT_EQ(parked_delivery(20), 26u); // departs at 20, +1 hop, +5
}

TEST(MacProtoToken, AutoPassPriceMatchesLegacyConstant)
{
    auto parked_fetch = [](std::uint32_t pass_cycles,
                           std::uint32_t frame_bits) {
        WirelessConfig cfg;
        cfg.macKind = MacKind::Token;
        cfg.tokenPassCycles = pass_cycles;
        cfg.tokenFrameBits = frame_bits;
        ProtoNet net(8, cfg);
        Cycle delivered_at = 0;
        spawnNow(net.engine, [&]() -> Task<void> {
            co_await net.macs[3]->send(
                false, [&] { delivered_at = net.engine.now(); });
        });
        net.engine.run();
        return delivered_at;
    };
    // tokenPassCycles = 0 (the default) prices the hop through the RF
    // model: a 16-bit token frame at the 16 Gb/s WiSync transceiver is
    // exactly the legacy 1-cycle constant, so the default machine
    // timing is unchanged.
    EXPECT_EQ(parked_fetch(0, 16), parked_fetch(1, 16));
    EXPECT_EQ(parked_fetch(0, 16), 3u * 1u + 5u);
    // Wider control frames cost more slots: 48 bits -> 3 cycles/hop.
    EXPECT_EQ(parked_fetch(0, 48), 3u * 3u + 5u);
    // An explicit nonzero constant still wins over the RF pricing.
    EXPECT_EQ(parked_fetch(2, 48), 3u * 2u + 5u);
}

/** A non-default token frame: the hop price is the RF formula's, fixed
 *  at construction and re-derived when a reset retimes the channel. */
TEST(MacProtoToken, PassCyclesFollowTheFrameFormulaThroughReset)
{
    using wisync::wireless::RfScalingModel;
    const auto formula = [](std::uint32_t bits) {
        return RfScalingModel::frameCycles(
            bits, RfScalingModel::wisyncTransceiver22());
    };
    WirelessConfig cfg;
    cfg.macKind = MacKind::Token;
    cfg.tokenFrameBits = 200;
    ProtoNet net(8, cfg);
    auto &token = static_cast<wisync::wireless::TokenMac &>(*net.protocol);
    ASSERT_GT(formula(200), 1u);
    EXPECT_EQ(token.passCycles(), formula(200));
    // Node 5 fetches the token parked at node 0: five hops, then the
    // 5-cycle frame.
    Cycle delivered_at = 0;
    spawnNow(net.engine, [&]() -> Task<void> {
        co_await net.macs[5]->send(
            false, [&] { delivered_at = net.engine.now(); });
    });
    ASSERT_TRUE(net.engine.run());
    EXPECT_EQ(delivered_at, 5u * formula(200) + 5u);
    EXPECT_EQ(net.protocol->stats().tokenRotations.value(), 5u);

    cfg.tokenFrameBits = 48;
    net.engine.reset();
    net.channel.reset(cfg);
    net.protocol->reset();
    EXPECT_EQ(token.passCycles(), formula(48));
    EXPECT_EQ(token.passCycles(), 3u);
}

/** The ring scan for the next requester across 64-node words and the
 *  wrap back to node 0. */
TEST(MacProtoToken, GrantQueueFindsTheNextRequesterInRingOrder)
{
    using wisync::wireless::GrantQueue;
    using wisync::wireless::MacWaiter;
    constexpr wisync::sim::NodeId kNone = wisync::sim::kNoNode;
    Engine engine;
    wisync::wireless::MacStats stats;
    GrantQueue queue(engine, 130, stats);
    MacWaiter waiters[3];
    queue.park(3, waiters[0]);
    queue.park(64, waiters[1]);
    queue.park(129, waiters[2]);
    EXPECT_EQ(queue.nextWanting(0, 130), 3u);
    EXPECT_EQ(queue.nextWanting(4, 130), 64u);
    EXPECT_EQ(queue.nextWanting(65, 65), 129u);
    EXPECT_EQ(queue.nextWanting(65, 63), kNone);
    EXPECT_EQ(queue.nextWanting(100, 40), 129u);
    EXPECT_EQ(queue.nextWanting(4, 60), kNone);
    EXPECT_EQ(queue.nextWanting(64, 0), kNone);
    queue.grant(129);
    EXPECT_EQ(queue.nextWanting(70, 100), 3u); // wraps past 129 to 0..39
    EXPECT_EQ(queue.nextWanting(70, 63), kNone);
    EXPECT_EQ(stats.tokenWaits.value(), 3u);
    queue.reset();
    EXPECT_EQ(queue.nextWanting(0, 130), kNone);
}

TEST(MacProtoToken, IdleRingSchedulesNoEvents)
{
    WirelessConfig cfg;
    cfg.macKind = MacKind::Token;
    ProtoNet net(64, cfg);
    net.engine.run();
    // Demand-driven token: an idle ring must not spin the clock.
    EXPECT_EQ(net.engine.now(), 0u);
}

// ---- FuzzyTokenMac properties -------------------------------------

TEST(MacProtoFuzzy, UncontendedSendPaysNoTokenLatency)
{
    WirelessConfig cfg;
    cfg.macKind = MacKind::FuzzyToken;
    ProtoNet net(16, cfg);
    Cycle delivered_at = 0;
    // Node 9 is far from the parked token but the channel is idle:
    // CSMA wins, no ring latency (unlike TokenMac's 9 hops).
    spawnNow(net.engine, [&]() -> Task<void> {
        co_await net.macs[9]->send(
            false, [&] { delivered_at = net.engine.now(); });
    });
    net.engine.run();
    EXPECT_EQ(delivered_at, 5u);
}

TEST(MacProtoFuzzy, StormResolvesDeterministicallyByRingOrder)
{
    auto run = [] {
        WirelessConfig cfg;
        cfg.macKind = MacKind::FuzzyToken;
        ProtoNet net(32, cfg);
        int delivered = 0;
        auto sender = [&](int mac) -> Task<void> {
            for (int i = 0; i < 4; ++i)
                co_await net.macs[static_cast<std::size_t>(mac)]->send(
                    false, [&] { ++delivered; });
        };
        for (int m = 0; m < 32; ++m)
            spawnNow(net.engine, sender, m);
        EXPECT_TRUE(net.engine.run(10'000'000));
        EXPECT_EQ(delivered, 128);
        EXPECT_GT(net.protocol->stats().fuzzyGrabs.value(), 0u);
        EXPECT_GT(net.protocol->stats().tokenRotations.value(), 0u);
        return net.engine.now();
    };
    // RNG-free by construction: repeats are identical.
    EXPECT_EQ(run(), run());
}

// ---- AdaptiveMac properties ---------------------------------------

TEST(MacProtoAdaptive, BarrierStormTriggersTokenMode)
{
    const auto r = runTight(ConfigKind::WiSyncNoT, MacKind::Adaptive, 16,
                            10);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.macModeSwitches, 1u);
    EXPECT_GT(r.macTokenWaits, 0u);
}

TEST(MacProtoAdaptive, HugeWindowNeverSwitchesAndMatchesBrsExactly)
{
    auto cfg = MachineConfig::make(ConfigKind::WiSyncNoT, 16);
    cfg.wireless.macKind = MacKind::Adaptive;
    cfg.wireless.adaptWindowEvents = 1'000'000'000;
    Machine adaptive(cfg);
    wisync::workloads::TightLoopParams p;
    p.iterations = 8;
    const auto a = wisync::workloads::runTightLoopOn(adaptive, p);

    Machine brs(MachineConfig::make(ConfigKind::WiSyncNoT, 16));
    const auto b = wisync::workloads::runTightLoopOn(brs, p);

    EXPECT_EQ(a.macModeSwitches, 0u);
    EXPECT_TRUE(wisync::workloads::bitIdentical(a, b));
}

// ---- Machine-level contracts for every MacKind --------------------

class MacProtoMachine : public ::testing::TestWithParam<MacKind>
{};

INSTANTIATE_TEST_SUITE_P(Kinds, MacProtoMachine,
                         ::testing::ValuesIn(kAllMacs));

TEST_P(MacProtoMachine, DeterministicAcrossRepeats)
{
    const auto a = runTight(ConfigKind::WiSyncNoT, GetParam(), 16, 6);
    const auto b = runTight(ConfigKind::WiSyncNoT, GetParam(), 16, 6);
    ASSERT_TRUE(a.completed);
    EXPECT_TRUE(wisync::workloads::bitIdentical(a, b));
}

TEST_P(MacProtoMachine, FreshVsResetReuseIdentical)
{
    const auto fresh = runTight(ConfigKind::WiSync, GetParam(), 16, 5);
    Machine persistent(MachineConfig::make(ConfigKind::WiSync, 16));
    const auto reused =
        runTight(ConfigKind::WiSync, GetParam(), 16, 5, &persistent);
    ASSERT_TRUE(fresh.completed);
    EXPECT_TRUE(wisync::workloads::bitIdentical(fresh, reused));
}

TEST_P(MacProtoMachine, ToneConfigCompletesWithEveryMac)
{
    // The tone-barrier announcement path rides the same MAC; the full
    // WiSync config must complete under every protocol.
    const auto r = runTight(ConfigKind::WiSync, GetParam(), 32, 4);
    EXPECT_TRUE(r.completed);
}

TEST(MacProtoMachine, ResetSwapsProtocolsAndMatchesFreshRuns)
{
    // One machine cycles through all four protocols (exercising the
    // rebuild-on-kind-change path in BmSystem::reset) and back; every
    // leg must match a fresh machine bit-for-bit.
    Machine persistent(MachineConfig::make(ConfigKind::WiSyncNoT, 16));
    const MacKind sequence[] = {MacKind::Token, MacKind::FuzzyToken,
                                MacKind::Adaptive, MacKind::Brs,
                                MacKind::Token, MacKind::Brs};
    for (const auto mac : sequence) {
        const auto fresh = runTight(ConfigKind::WiSyncNoT, mac, 16, 5);
        const auto reused =
            runTight(ConfigKind::WiSyncNoT, mac, 16, 5, &persistent);
        ASSERT_TRUE(fresh.completed);
        EXPECT_TRUE(wisync::workloads::bitIdentical(fresh, reused))
            << "mac=" << toString(mac);
        EXPECT_EQ(persistent.bm()->macProtocol().kind(), mac);
    }
}

TEST(MacProtoParallelSweep, GridIsThreadCountIndependent)
{
    wisync::workloads::TightLoopParams params;
    params.iterations = 3;
    wisync::harness::ParallelSweep sweep;
    for (const auto mac : kAllMacs) {
        for (const std::uint32_t cores : {8u, 16u}) {
            auto cfg = MachineConfig::make(ConfigKind::WiSyncNoT, cores);
            cfg.wireless.macKind = mac;
            sweep.add(cfg, [params](Machine &m) {
                return wisync::workloads::runTightLoopOn(m, params);
            });
        }
    }
    const auto serial = sweep.run(1);
    for (const unsigned threads : {2u, 4u}) {
        const auto parallel = sweep.run(threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_TRUE(
                wisync::workloads::bitIdentical(serial[i], parallel[i]))
                << "point " << i << " threads " << threads;
    }
}

} // namespace
