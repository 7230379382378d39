/**
 * @file
 * Randomized cross-module fuzz: threads on every configuration issue
 * random mixes of memory ops, BM ops, locks and barriers; the run
 * must complete, preserve value invariants, keep BM replicas
 * identical, and be bit-for-bit deterministic across repeats.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/machine.hh"
#include "harness/parallel_sweep.hh"
#include "service/cache_store.hh"
#include "service/config_codec.hh"
#include "service/daemon.hh"
#include "service/fault.hh"
#include "service/json.hh"
#include "service/shard_planner.hh"
#include "service/sweep_service.hh"
#include "sim/rng.hh"
#include "sync/factory.hh"
#include "workloads/tight_loop.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::core::ThreadCtx;
using wisync::coro::Task;
using wisync::sim::Addr;
using wisync::sim::NodeId;
using wisync::wireless::MacKind;

constexpr MacKind kMacKinds[] = {MacKind::Brs, MacKind::Token,
                                 MacKind::FuzzyToken, MacKind::Adaptive};

/** Everything a fuzz thread needs, owned by the driving test frame. */
struct FuzzEnv
{
    wisync::sync::Barrier *barrier;
    wisync::sync::Lock *lock;
    Addr counter;
    Addr shared;
    wisync::sim::BmAddr bmCounter;
    std::uint64_t seed;
    int ops;
};

Task<void>
fuzzThread(ThreadCtx &ctx, const FuzzEnv *env, NodeId n)
{
    wisync::sim::Rng rng(env->seed ^ (n * 0x9E3779B97F4A7C15ull + 1));
    const bool has_bm = ctx.machine().bm() != nullptr;
    for (int i = 0; i < env->ops; ++i) {
        switch (rng.below(has_bm ? 6 : 5)) {
          case 0:
            co_await ctx.compute(rng.between(1, 200));
            break;
          case 1:
            co_await ctx.load(env->shared + rng.below(64) * 64);
            break;
          case 2:
            co_await ctx.store(env->shared + rng.below(64) * 64,
                               rng.next());
            break;
          case 3:
            co_await ctx.fetchAdd(env->counter, 1);
            break;
          case 4: {
            co_await env->lock->acquire(ctx);
            const auto v = co_await ctx.load(env->counter);
            co_await ctx.store(env->counter, v + 1);
            co_await env->lock->release(ctx);
            break;
          }
          case 5:
            co_await ctx.bmFetchAdd(env->bmCounter, 1);
            break;
        }
    }
    co_await env->barrier->wait(ctx);
}

struct FuzzResult
{
    wisync::sim::Cycle cycles = 0;
    std::uint64_t counter = 0;
    std::uint64_t bmCounter = 0;
    bool replicasOk = false;
    bool completed = false;
};

/**
 * One randomized run. With @p reuse the workload executes on that
 * (shape-compatible) machine after a reset instead of on a fresh
 * build — per the reset contract the results must be identical.
 */
FuzzResult
fuzzRun(ConfigKind kind, std::uint64_t seed, std::uint32_t threads,
        int ops_per_thread, Machine *reuse = nullptr,
        MacKind mac = MacKind::Brs, double loss_pct = 0.0,
        bool ber_from_snr = false, double tx_power_dbm = 10.0,
        const std::function<void(MachineConfig &)> &tweak = {})
{
    auto cfg = MachineConfig::make(kind, threads);
    cfg.seed = seed;
    cfg.wireless.macKind = mac;
    cfg.wireless.lossPct = loss_pct;
    cfg.wireless.berFromSnr = ber_from_snr;
    cfg.wireless.txPowerDbm = tx_power_dbm;
    if (tweak)
        tweak(cfg);
    std::unique_ptr<Machine> owned;
    if (reuse != nullptr) {
        reuse->reset(cfg);
    } else {
        owned = std::make_unique<Machine>(cfg);
    }
    Machine &m = reuse != nullptr ? *reuse : *owned;
    wisync::sync::SyncFactory factory(m);
    std::vector<NodeId> nodes;
    for (NodeId n = 0; n < threads; ++n)
        nodes.push_back(n);
    auto barrier = factory.makeBarrier(nodes);
    auto lock = factory.makeLock();

    FuzzEnv env;
    env.barrier = barrier.get();
    env.lock = lock.get();
    env.counter = m.allocMem(64, 64);
    env.shared = m.allocMem(64 * 64, 64);
    env.bmCounter = 0;
    env.seed = seed;
    env.ops = ops_per_thread;
    if (m.bm()) {
        EXPECT_TRUE(m.allocBm(1, env.bmCounter));
        m.bm()->storeArray().setTag(env.bmCounter, 1);
    }

    for (NodeId n = 0; n < threads; ++n) {
        m.spawnThread(n, [&env, n](ThreadCtx &ctx) {
            return fuzzThread(ctx, &env, n);
        });
    }

    FuzzResult r;
    r.completed = m.run(400'000'000ull);
    r.cycles = m.engine().now();
    r.counter = m.memory().read64(env.counter);
    r.bmCounter =
        m.bm() ? m.bm()->storeArray().read(0, env.bmCounter) : 0;
    r.replicasOk =
        m.bm() ? m.bm()->storeArray().replicasConsistent() : true;
    return r;
}

class FuzzAllConfigs : public ::testing::TestWithParam<ConfigKind>
{};

INSTANTIATE_TEST_SUITE_P(Configs, FuzzAllConfigs,
                         ::testing::Values(ConfigKind::Baseline,
                                           ConfigKind::BaselinePlus,
                                           ConfigKind::WiSyncNoT,
                                           ConfigKind::WiSync));

TEST_P(FuzzAllConfigs, RandomMixPreservesInvariants)
{
    const auto r = fuzzRun(GetParam(), 0xC0FFEE, 8, 40);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.replicasOk);
    // The counter only receives +1 ops (atomic or lock-guarded), at
    // most ops_per_thread per thread; none may be lost or invented.
    EXPECT_GT(r.counter + r.bmCounter, 0u);
    EXPECT_LE(r.counter + r.bmCounter, 8u * 40u);
}

TEST_P(FuzzAllConfigs, DeterministicAcrossRepeats)
{
    const auto a = fuzzRun(GetParam(), 1234, 8, 30);
    const auto b = fuzzRun(GetParam(), 1234, 8, 30);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.counter, b.counter);
    EXPECT_EQ(a.bmCounter, b.bmCounter);
}

TEST_P(FuzzAllConfigs, FreshVsResetAlternationStaysEquivalent)
{
    // Randomly alternate between fresh machines and one persistent
    // reset-reused machine across randomized iterations; every reused
    // run must be bit-identical to its fresh reference.
    const auto kind = GetParam();
    Machine persistent(MachineConfig::make(kind, 8));
    wisync::sim::Rng pick(0xA1B2C3D4);
    int reused_runs = 0;
    for (int i = 0; i < 8; ++i) {
        const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(i);
        const auto reference = fuzzRun(kind, seed, 8, 15);
        ASSERT_TRUE(reference.completed);
        FuzzResult other;
        if (pick.chance(0.5)) {
            other = fuzzRun(kind, seed, 8, 15, &persistent);
            ++reused_runs;
        } else {
            other = fuzzRun(kind, seed, 8, 15);
        }
        EXPECT_EQ(reference.cycles, other.cycles) << "iteration " << i;
        EXPECT_EQ(reference.counter, other.counter) << "iteration " << i;
        EXPECT_EQ(reference.bmCounter, other.bmCounter)
            << "iteration " << i;
        EXPECT_TRUE(other.replicasOk);
    }
    // The deterministic pick stream exercises both paths.
    EXPECT_GT(reused_runs, 0);
    EXPECT_LT(reused_runs, 8);
}

TEST_P(FuzzAllConfigs, DifferentSeedsDiverge)
{
    const auto a = fuzzRun(GetParam(), 1, 8, 30);
    const auto b = fuzzRun(GetParam(), 2, 8, 30);
    // Same op counts, different interleavings: almost surely
    // different finishing times.
    EXPECT_NE(a.cycles, b.cycles);
}

/**
 * MAC-protocol dimension: the same randomized op mix on the full
 * WiSync config under every MacKind — invariants hold, repeats are
 * bit-identical, and a reset-reused machine (including the protocol
 * rebuild when the kind changes between runs) matches fresh builds.
 */
class FuzzMacProtocols : public ::testing::TestWithParam<MacKind>
{};

INSTANTIATE_TEST_SUITE_P(Macs, FuzzMacProtocols,
                         ::testing::ValuesIn(kMacKinds));

TEST_P(FuzzMacProtocols, RandomMixPreservesInvariants)
{
    const auto r =
        fuzzRun(ConfigKind::WiSync, 0xBEEF01, 8, 40, nullptr, GetParam());
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.replicasOk);
    EXPECT_GT(r.counter + r.bmCounter, 0u);
    EXPECT_LE(r.counter + r.bmCounter, 8u * 40u);
}

TEST_P(FuzzMacProtocols, DeterministicAcrossRepeats)
{
    const auto a =
        fuzzRun(ConfigKind::WiSync, 4321, 8, 30, nullptr, GetParam());
    const auto b =
        fuzzRun(ConfigKind::WiSync, 4321, 8, 30, nullptr, GetParam());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.counter, b.counter);
    EXPECT_EQ(a.bmCounter, b.bmCounter);
}

TEST(FuzzMacProtocols, RandomKindFlipsThroughResetMatchFresh)
{
    // One persistent machine reset to a random MacKind each round;
    // every leg must be bit-identical to a fresh machine of that kind.
    Machine persistent(MachineConfig::make(ConfigKind::WiSyncNoT, 8));
    wisync::sim::Rng pick(0xFACADE);
    for (int i = 0; i < 8; ++i) {
        const MacKind mac = kMacKinds[pick.below(4)];
        const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(i);
        const auto fresh =
            fuzzRun(ConfigKind::WiSyncNoT, seed, 8, 15, nullptr, mac);
        const auto reused =
            fuzzRun(ConfigKind::WiSyncNoT, seed, 8, 15, &persistent, mac);
        ASSERT_TRUE(fresh.completed);
        EXPECT_EQ(fresh.cycles, reused.cycles) << "round " << i;
        EXPECT_EQ(fresh.counter, reused.counter) << "round " << i;
        EXPECT_EQ(fresh.bmCounter, reused.bmCounter) << "round " << i;
        EXPECT_TRUE(reused.replicasOk);
    }
}

/**
 * Multi-chip dimension: random (numChips, MacKind, lossPct) triples on
 * the full WiSync config, every round run twice — on one persistent
 * reset-reused machine and on a fresh build — and the two must be
 * bit-identical. At quiescence the replicas must be coherent across
 * the bridge (per-chip groups agree, and Global words agree
 * machine-wide), including under a lossy channel where the bridged
 * updates race retransmissions.
 */
TEST(FuzzMultiChip, RandomChipGridsThroughResetMatchFreshAndStayCoherent)
{
    constexpr std::uint32_t kCores = 16;
    constexpr std::uint32_t kChipChoices[] = {1, 2, 4};
    Machine persistent(MachineConfig::make(ConfigKind::WiSync, kCores));
    wisync::sim::Rng pick(0xC41905);
    int multichip_rounds = 0;
    for (int i = 0; i < 10; ++i) {
        const std::uint32_t chips = kChipChoices[pick.below(3)];
        const MacKind mac = kMacKinds[pick.below(4)];
        const double loss = pick.below(2) == 0 ? 0.0 : 5.0;
        const std::uint64_t seed = 7100 + static_cast<std::uint64_t>(i);
        multichip_rounds += chips > 1 ? 1 : 0;
        const auto tweak = [chips](MachineConfig &cfg) {
            cfg.numChips = chips;
        };
        const auto fresh = fuzzRun(ConfigKind::WiSync, seed, kCores, 12,
                                   nullptr, mac, loss, false, 10.0, tweak);
        const auto reused = fuzzRun(ConfigKind::WiSync, seed, kCores, 12,
                                    &persistent, mac, loss, false, 10.0,
                                    tweak);
        ASSERT_TRUE(fresh.completed) << "round " << i;
        ASSERT_TRUE(reused.completed) << "round " << i;
        EXPECT_EQ(fresh.cycles, reused.cycles) << "round " << i;
        EXPECT_EQ(fresh.counter, reused.counter) << "round " << i;
        EXPECT_EQ(fresh.bmCounter, reused.bmCounter) << "round " << i;
        EXPECT_TRUE(persistent.bm()->storeArray().replicasConsistent(
            kCores / chips))
            << "round " << i;
    }
    // The deterministic pick stream must actually cross the bridge.
    EXPECT_GT(multichip_rounds, 0);
}

/**
 * Host-parallelism dimension: randomized sweep grids executed through
 * harness::ParallelSweep at a fuzz-chosen worker count must merge to
 * exactly the serial run's results. This fuzzes what the golden tests
 * in test_parallel_sweep.cc pin down: grid shape, machine-shape
 * mixing (worker caches see arbitrary shape sequences) and worker
 * count all vary randomly.
 */
TEST(FuzzParallelSweep, RandomGridsMatchSerialAtRandomThreadCounts)
{
    using wisync::harness::ParallelSweep;
    using wisync::workloads::TightLoopParams;

    wisync::sim::Rng rng(0x5EEDF00D);
    constexpr ConfigKind kKinds[] = {ConfigKind::Baseline,
                                     ConfigKind::BaselinePlus,
                                     ConfigKind::WiSyncNoT,
                                     ConfigKind::WiSync};
    constexpr unsigned kThreadChoices[] = {1, 2, 4};

    for (int iter = 0; iter < 6; ++iter) {
        ParallelSweep sweep;
        const int points = 3 + static_cast<int>(rng.below(6));
        for (int p = 0; p < points; ++p) {
            auto cfg = MachineConfig::make(
                kKinds[rng.below(4)],
                4u << rng.below(3)); // 4, 8 or 16 cores
            cfg.seed = rng.next();
            // MAC dimension: wired kinds ignore it, wireless kinds
            // must stay thread-count independent under every protocol.
            cfg.wireless.macKind = kMacKinds[rng.below(4)];
            TightLoopParams params;
            params.iterations = 1 + static_cast<std::uint32_t>(rng.below(3));
            sweep.add(cfg, [params](Machine &m) {
                return wisync::workloads::runTightLoopOn(m, params);
            });
        }

        const auto serial = sweep.run(1);
        const unsigned threads = kThreadChoices[rng.below(3)];
        const auto parallel = sweep.run(threads);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_TRUE(wisync::workloads::bitIdentical(serial[i],
                                                        parallel[i]))
                << "iter " << iter << " point " << i << " threads "
                << threads;
        }
    }
}

/**
 * Lossy-channel dimension: random BER (uniform and SNR-derived) x
 * MacKind x ConfigKind. Invariants: every kernel terminates inside
 * the run limit (the reliability layer's bounded give-up plus the
 * controller's re-issue/AFB degradation forbid hangs), BM replicas
 * stay coherent (no lost wakeups: the barrier at the end of every
 * fuzz thread would otherwise never release), counter bounds hold,
 * and the same seed replays bit-identically.
 */
TEST(FuzzLossyChannel, RandomLossGridPreservesInvariantsAndReplays)
{
    wisync::sim::Rng rng(0x10551055);
    constexpr ConfigKind kWirelessKinds[] = {ConfigKind::WiSyncNoT,
                                             ConfigKind::WiSync};
    for (int iter = 0; iter < 10; ++iter) {
        const auto kind = kWirelessKinds[rng.below(2)];
        const auto mac = kMacKinds[rng.below(4)];
        // Up to 35% uniform loss — heavy, but the give-up probability
        // stays far from the regime where re-issue loops crawl.
        const double loss = static_cast<double>(rng.below(36));
        const bool snr = rng.chance(0.25);
        // In the SNR regime, walk the transmit power down into the
        // band where corner transmitters go marginal.
        const double power =
            snr ? static_cast<double>(rng.below(8)) - 2.0 : 10.0;
        const std::uint64_t seed =
            0x105500 + static_cast<std::uint64_t>(iter);
        const auto a =
            fuzzRun(kind, seed, 8, 20, nullptr, mac, loss, snr, power);
        ASSERT_TRUE(a.completed)
            << "iter " << iter << " loss " << loss << " snr " << snr;
        EXPECT_TRUE(a.replicasOk);
        EXPECT_LE(a.counter + a.bmCounter, 8u * 20u);
        const auto b =
            fuzzRun(kind, seed, 8, 20, nullptr, mac, loss, snr, power);
        EXPECT_EQ(a.cycles, b.cycles) << "iter " << iter;
        EXPECT_EQ(a.counter, b.counter) << "iter " << iter;
        EXPECT_EQ(a.bmCounter, b.bmCounter) << "iter " << iter;
    }
}

TEST(FuzzLossyChannel, Loss0KnobsNeverPerturbTheIdealChannel)
{
    // Random ack/retry knob settings with lossPct = 0 must replay the
    // ideal channel bit-for-bit (the knobs are dead state until a
    // drop happens, and drops cannot happen).
    wisync::sim::Rng rng(0x0FF0FF);
    for (int iter = 0; iter < 6; ++iter) {
        const auto mac = kMacKinds[rng.below(4)];
        const std::uint64_t seed =
            0x0FF000 + static_cast<std::uint64_t>(iter);
        const auto ideal =
            fuzzRun(ConfigKind::WiSync, seed, 8, 15, nullptr, mac);
        ASSERT_TRUE(ideal.completed);
        const auto ack = 1 + static_cast<std::uint32_t>(rng.below(16));
        const auto retries = static_cast<std::uint32_t>(rng.below(12));
        const auto exp = static_cast<std::uint32_t>(rng.below(8));
        const auto odd = fuzzRun(
            ConfigKind::WiSync, seed, 8, 15, nullptr, mac, 0.0, false,
            10.0, [&](MachineConfig &cfg) {
                cfg.wireless.ackTimeoutCycles = ack;
                cfg.wireless.maxRetries = retries;
                cfg.wireless.retryBackoffMaxExp = exp;
            });
        EXPECT_EQ(ideal.cycles, odd.cycles) << "iter " << iter;
        EXPECT_EQ(ideal.counter, odd.counter) << "iter " << iter;
        EXPECT_EQ(ideal.bmCounter, odd.bmCounter) << "iter " << iter;
    }
}

/**
 * Bursty-channel dimension: random Gilbert–Elliott parametrizations
 * (via BurstParams::fromMean, mean bounded far below the 100%-forever
 * corner) x numChips x MacKind, every round run twice — on one
 * persistent reset-reused machine and on a fresh build. Invariants:
 * the run terminates (correlated drops ride the same bounded give-up
 * / re-issue machinery as i.i.d. ones), replicas stay coherent across
 * chips, and the two legs are bit-identical. Rounds with multiple
 * chips also randomly arm the bridge's own burst chain.
 */
TEST(FuzzBurstyChannel, RandomBurstGridsThroughResetMatchFresh)
{
    constexpr std::uint32_t kCores = 16;
    constexpr std::uint32_t kChipChoices[] = {1, 2, 4};
    Machine persistent(MachineConfig::make(ConfigKind::WiSync, kCores));
    wisync::sim::Rng pick(0xB095B095);
    int multichip_rounds = 0, bridge_burst_rounds = 0;
    for (int i = 0; i < 10; ++i) {
        // Mean loss 5..30%, mean burst length 1..8 transmissions.
        const double mean = 5.0 + static_cast<double>(pick.below(26));
        const double len = 1.0 + static_cast<double>(pick.below(8));
        const std::uint32_t chips = kChipChoices[pick.below(3)];
        const MacKind mac = kMacKinds[pick.below(4)];
        const bool bridge_burst = chips > 1 && pick.chance(0.5);
        const std::uint64_t seed = 0xB0B0 + static_cast<std::uint64_t>(i);
        multichip_rounds += chips > 1 ? 1 : 0;
        bridge_burst_rounds += bridge_burst ? 1 : 0;
        const auto tweak = [&](MachineConfig &cfg) {
            cfg.numChips = chips;
            cfg.wireless.burst =
                wisync::wireless::BurstParams::fromMean(mean, len);
            if (bridge_burst)
                cfg.bridge.burst =
                    wisync::wireless::BurstParams::fromMean(mean, len);
        };
        const auto fresh = fuzzRun(ConfigKind::WiSync, seed, kCores, 12,
                                   nullptr, mac, 0.0, false, 10.0, tweak);
        const auto reused = fuzzRun(ConfigKind::WiSync, seed, kCores, 12,
                                    &persistent, mac, 0.0, false, 10.0,
                                    tweak);
        ASSERT_TRUE(fresh.completed)
            << "round " << i << " mean " << mean << " len " << len;
        ASSERT_TRUE(reused.completed) << "round " << i;
        EXPECT_EQ(fresh.cycles, reused.cycles) << "round " << i;
        EXPECT_EQ(fresh.counter, reused.counter) << "round " << i;
        EXPECT_EQ(fresh.bmCounter, reused.bmCounter) << "round " << i;
        EXPECT_TRUE(persistent.bm()->storeArray().replicasConsistent(
            kCores / chips))
            << "round " << i;
    }
    // The deterministic pick stream exercises both extensions.
    EXPECT_GT(multichip_rounds, 0);
    EXPECT_GT(bridge_burst_rounds, 0);
}

TEST(FuzzBurstyChannel, BurstOffKnobsNeverPerturbTheIdealChannel)
{
    // Random burst parameters with the enable gate off (and random
    // per-channel profile knobs on a single-slot machine with no SNR
    // model, where they cannot matter) must replay the ideal channel
    // bit-for-bit — the knobs are dead state until enabled.
    wisync::sim::Rng rng(0x0B057);
    for (int iter = 0; iter < 6; ++iter) {
        const auto mac = kMacKinds[rng.below(4)];
        const std::uint64_t seed =
            0x0B0500 + static_cast<std::uint64_t>(iter);
        const auto ideal =
            fuzzRun(ConfigKind::WiSync, seed, 8, 15, nullptr, mac);
        ASSERT_TRUE(ideal.completed);
        const double good = static_cast<double>(rng.below(100));
        const double bad = static_cast<double>(rng.below(100));
        const double pgb = rng.uniform();
        const double pbg = rng.uniform();
        const auto odd = fuzzRun(
            ConfigKind::WiSync, seed, 8, 15, nullptr, mac, 0.0, false,
            10.0, [&](MachineConfig &cfg) {
                cfg.wireless.burst.enabled = false;
                cfg.wireless.burst.goodLossPct = good;
                cfg.wireless.burst.badLossPct = bad;
                cfg.wireless.burst.pGoodToBad = pgb;
                cfg.wireless.burst.pBadToGood = pbg;
                cfg.wireless.channelLossBaseDb =
                    static_cast<double>(rng.below(20));
                cfg.wireless.channelLossStepDb =
                    static_cast<double>(rng.below(10));
            });
        EXPECT_EQ(ideal.cycles, odd.cycles) << "iter " << iter;
        EXPECT_EQ(ideal.counter, odd.counter) << "iter " << iter;
        EXPECT_EQ(ideal.bmCounter, odd.bmCounter) << "iter " << iter;
    }
}

/** Heavier sweep: more threads and ops, both wireless configs. */
class FuzzScale
    : public ::testing::TestWithParam<std::tuple<ConfigKind, int>>
{};

INSTANTIATE_TEST_SUITE_P(
    Sweep, FuzzScale,
    ::testing::Combine(::testing::Values(ConfigKind::WiSyncNoT,
                                         ConfigKind::WiSync),
                       ::testing::Values(16, 32)));

TEST_P(FuzzScale, ScalesWithoutInvariantViolations)
{
    const auto [kind, threads] = GetParam();
    const auto r =
        fuzzRun(kind, 777, static_cast<std::uint32_t>(threads), 25);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.replicasOk);

    // The same run on a reset-reused machine matches exactly.
    Machine persistent(
        MachineConfig::make(kind, static_cast<std::uint32_t>(threads)));
    const auto again = fuzzRun(
        kind, 777, static_cast<std::uint32_t>(threads), 25, &persistent);
    EXPECT_EQ(r.cycles, again.cycles);
    EXPECT_EQ(r.counter, again.counter);
    EXPECT_EQ(r.bmCounter, again.bmCounter);
}

/**
 * Sweep-service dimension: random grids with injected duplicates x
 * shard counts {1, 2, 4} x thread counts {1, 4}. Invariants: the
 * by-index merge of per-shard SweepService runs is bit-identical to
 * a serial, cache-disabled run of the full request; on cold caches
 * the summed cache hits equal exactly the number of within-shard
 * duplicates (for one shard: exactly the injected duplicate count);
 * evictions never drive the cache past its capacity bound.
 */
TEST(FuzzSweepService, RandomDuplicateGridsAcrossShardsAndThreads)
{
    using wisync::service::RequestPoint;
    using wisync::service::ServiceOutcome;
    using wisync::service::ShardPlanner;
    using wisync::service::SweepRequest;
    using wisync::service::SweepService;
    using wisync::service::WorkloadSpec;

    wisync::sim::Rng rng(0x5EC0FFEE);
    constexpr ConfigKind kKinds[] = {ConfigKind::Baseline,
                                     ConfigKind::WiSyncNoT,
                                     ConfigKind::WiSync};
    constexpr unsigned kShardChoices[] = {1, 2, 4};
    constexpr unsigned kThreadChoices[] = {1, 4};

    for (int iter = 0; iter < 4; ++iter) {
        // Unique base points (distinct seeds guarantee distinctness),
        // then injected duplicates of random earlier points.
        SweepRequest request;
        const int base = 3 + static_cast<int>(rng.below(4));
        for (int p = 0; p < base; ++p) {
            RequestPoint point;
            point.config = MachineConfig::make(kKinds[rng.below(3)],
                                               4u << rng.below(2));
            point.config.seed = 0xF00D0000u + static_cast<unsigned>(p);
            point.config.wireless.macKind = kMacKinds[rng.below(4)];
            if (rng.below(2))
                point.config.wireless.lossPct = 0.5;
            point.workload.tightLoop.iterations =
                1 + static_cast<std::uint32_t>(rng.below(3));
            request.points.push_back(point);
        }
        const std::size_t duplicates = 1 + rng.below(4);
        for (std::size_t d = 0; d < duplicates; ++d) {
            const std::size_t victim = rng.below(request.points.size());
            const std::size_t at = rng.below(request.points.size() + 1);
            request.points.insert(request.points.begin() +
                                      static_cast<std::ptrdiff_t>(at),
                                  request.points[victim]);
        }
        const std::size_t n = request.points.size();

        // Reference: serial, cache disabled — every point simulated.
        SweepService reference(0);
        const auto expect = reference.runBatch(request, 1);

        const unsigned shards =
            kShardChoices[rng.below(std::size(kShardChoices))];
        const unsigned threads =
            kThreadChoices[rng.below(std::size(kThreadChoices))];
        // Small enough that grids overflow it: evictions must fire
        // without ever breaking the capacity bound or costing a
        // duplicate its hit (duplicates resolve at representative
        // completion, while the entry is most-recently-used).
        constexpr std::size_t kCapacity = 4;

        std::vector<ServiceOutcome> merged(n);
        std::size_t hits = 0;
        std::size_t expected_hits = 0;
        for (unsigned s = 0; s < shards; ++s) {
            SweepService svc(kCapacity); // cold, per "process"
            const auto idx = ShardPlanner::planByCost(request, s, shards);
            const auto slice = ShardPlanner::subRequest(request, idx);
            auto part = svc.runBatch(slice, threads);
            ShardPlanner::mergeByIndex(merged, idx, std::move(part));
            hits += svc.lastBatch().cacheHits;

            // Within this shard's slice, every occurrence beyond a
            // point's first is a duplicate the cache must answer.
            std::size_t unique = 0;
            for (std::size_t j = 0; j < slice.points.size(); ++j) {
                bool first = true;
                for (std::size_t m = 0; m < j; ++m)
                    if (slice.points[m] == slice.points[j])
                        first = false;
                unique += first ? 1 : 0;
            }
            expected_hits += slice.points.size() - unique;

            EXPECT_LE(svc.cache().size(), kCapacity);
            EXPECT_EQ(svc.cache().stats().evictions,
                      svc.cache().stats().insertions -
                          svc.cache().size());
            EXPECT_EQ(svc.cache().stats().collisions, 0u);
        }

        EXPECT_EQ(hits, expected_hits) << "iter " << iter;
        if (shards == 1) {
            EXPECT_EQ(hits, duplicates) << "iter " << iter;
        }
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(merged[i].ok);
            EXPECT_TRUE(wisync::workloads::bitIdentical(
                merged[i].result, expect[i].result))
                << "iter " << iter << " point " << i << " shards "
                << shards << " threads " << threads;
        }
    }
}

// ---- Fault-injection dimension ----------------------------------

/** A request of @p n distinct points (unique seeds), cheap to
 *  simulate. */
wisync::service::SweepRequest
faultFuzzRequest(wisync::sim::Rng &rng, std::size_t n)
{
    using wisync::service::RequestPoint;
    wisync::service::SweepRequest request;
    constexpr ConfigKind kKinds[] = {ConfigKind::Baseline,
                                     ConfigKind::WiSyncNoT,
                                     ConfigKind::WiSync};
    for (std::size_t i = 0; i < n; ++i) {
        RequestPoint point;
        point.config = MachineConfig::make(kKinds[rng.below(3)],
                                           4u << rng.below(2));
        point.config.seed = 0xFA010000u + i;
        point.config.wireless.macKind = kMacKinds[rng.below(4)];
        point.workload.tightLoop.iterations =
            1 + static_cast<std::uint32_t>(rng.below(3));
        request.points.push_back(point);
    }
    return request;
}

/**
 * The robustness claim, fuzzed: every injected fault — a worker-body
 * exception or a mid-batch deadline hit — must surface as a typed
 * per-point error isolated to its point, and every surviving result
 * must stay bit-identical to a fault-free serial run. Afterwards the
 * same service, disarmed, must heal completely.
 */
TEST(FuzzFaultInjection, FaultsAreIsolatedTypedAndSurvivorsBitIdentical)
{
    using wisync::service::FaultPlan;
    using wisync::service::SweepRequest;
    using wisync::service::SweepService;

    wisync::sim::Rng rng(0xFA017);
    for (int iter = 0; iter < 6; ++iter) {
        const std::size_t n = 4 + rng.below(5);
        const SweepRequest request = faultFuzzRequest(rng, n);
        SweepService reference(0);
        const auto expect = reference.runBatch(request, 1);

        const FaultPlan plan = FaultPlan::make(rng.next(), n);
        SweepRequest faulted = request;
        // Budget 5 cycles: every workload is still starting up then,
        // so each deadline point deterministically trips mid-run.
        plan.applyDeadlines(faulted, 5);

        SweepService svc(64);
        plan.arm(svc);
        const unsigned threads = rng.below(2) ? 4 : 1;
        const auto got = svc.runBatch(faulted, threads);
        ASSERT_EQ(got.size(), n);
        std::size_t failed = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (plan.throwsAt(i)) {
                EXPECT_FALSE(got[i].ok) << "iter " << iter;
                EXPECT_NE(got[i].error.find("injected worker fault"),
                          std::string::npos)
                    << got[i].error;
                ++failed;
            } else if (plan.deadlineAt(i)) {
                EXPECT_FALSE(got[i].ok) << "iter " << iter;
                EXPECT_NE(got[i].error.find("DeadlineExceeded"),
                          std::string::npos)
                    << got[i].error;
                ++failed;
            } else {
                EXPECT_TRUE(got[i].ok)
                    << "iter " << iter << ": " << got[i].error;
                EXPECT_TRUE(wisync::workloads::bitIdentical(
                    got[i].result, expect[i].result))
                    << "iter " << iter << " point " << i;
            }
        }
        EXPECT_EQ(svc.lastBatch().errors, failed);

        // Disarmed rerun of the clean request on the SAME service:
        // clean points answer from cache, faulted ones simulate fresh
        // (an aborted point must never have been cached).
        svc.setBodyProbe({});
        const auto healed = svc.runBatch(request, threads);
        EXPECT_EQ(svc.lastBatch().cacheHits, n - failed);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(healed[i].ok) << healed[i].error;
            EXPECT_TRUE(wisync::workloads::bitIdentical(
                healed[i].result, expect[i].result))
                << "iter " << iter << " point " << i;
        }
    }
}

/** Random bit flips and truncations of a warm cache file: loading
 *  must never crash, hits must equal exactly what the salvage
 *  reported, and a rerun stays bit-identical to the reference. */
TEST(FuzzFaultInjection, CorruptedCacheFilesNeverCrashAndRerunsMatch)
{
    using wisync::service::CacheStore;
    using wisync::service::FaultPlan;
    using wisync::service::SweepService;

    wisync::sim::Rng rng(0xC0F5);
    const std::string path =
        ::testing::TempDir() + "wisync_fuzz_corrupt_" +
        std::to_string(static_cast<long long>(::getpid())) + ".bin";
    std::remove(path.c_str());

    const auto request = faultFuzzRequest(rng, 5);
    SweepService reference(0);
    const auto expect = reference.runBatch(request, 1);

    std::string golden;
    {
        SweepService warm(64);
        warm.runBatch(request, 1);
        std::string error;
        ASSERT_TRUE(CacheStore::save(warm.cache(), path, &error))
            << error;
        std::ifstream f(path, std::ios::binary);
        std::ostringstream ss;
        ss << f.rdbuf();
        golden = ss.str();
    }

    for (int round = 0; round < 10; ++round) {
        {
            std::ofstream f(path, std::ios::binary | std::ios::trunc);
            f.write(golden.data(),
                    static_cast<std::streamsize>(golden.size()));
        }
        if (round % 2 == 0)
            ASSERT_TRUE(FaultPlan::flipBit(path, rng.next()));
        else
            ASSERT_TRUE(FaultPlan::truncateFile(
                path, rng.below(golden.size() + 1)));

        SweepService svc(64);
        const auto stats = CacheStore::load(svc.cache(), path);
        EXPECT_LE(stats.loaded, request.points.size());
        const auto got = svc.runBatch(request, 1);
        EXPECT_EQ(svc.lastBatch().cacheHits, stats.loaded)
            << "round " << round
            << ": every salvaged record must hit, nothing else";
        EXPECT_EQ(svc.lastBatch().errors, 0u);
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_TRUE(got[i].ok) << got[i].error;
            EXPECT_TRUE(wisync::workloads::bitIdentical(
                got[i].result, expect[i].result))
                << "round " << round << " point " << i;
        }
    }
    std::remove(path.c_str());
}

/** Byte-mangled request lines against a live daemon: one response
 *  per nonempty line, each either results or a typed error, and the
 *  daemon keeps answering clean requests perfectly afterwards. */
TEST(FuzzFaultInjection, MutatedRequestLinesNeverKillTheDaemon)
{
    using wisync::service::ConfigCodec;
    using wisync::service::Daemon;
    using wisync::service::DaemonOptions;
    using wisync::service::FaultPlan;

    wisync::sim::Rng rng(0xDAE0);
    auto request = faultFuzzRequest(rng, 3);
    // Budget every point so a mutation that inflates a numeric field
    // (iterations, cores) can cost at most 20000 simulated cycles —
    // it then answers a typed DeadlineExceeded error, not a hang.
    for (auto &point : request.points)
        point.workload.maxCycles = 20000;
    const std::string canonical = ConfigCodec::serializeRequest(request);

    DaemonOptions opt;
    opt.threads = 2;
    Daemon daemon(opt);
    for (int iter = 0; iter < 25; ++iter) {
        const std::string mangled =
            FaultPlan::mutateLine(canonical, rng);
        std::istringstream in(mangled + "\n" + canonical + "\n");
        std::ostringstream out;
        const std::size_t expected = mangled.empty() ? 1u : 2u;
        EXPECT_EQ(daemon.serve(in, out), expected) << "iter " << iter;

        std::istringstream lines(out.str());
        std::string line;
        std::size_t count = 0;
        std::string last;
        while (std::getline(lines, line)) {
            ++count;
            EXPECT_FALSE(line.empty());
            EXPECT_EQ(line.front(), '{');
            EXPECT_TRUE(line.find("\"results\"") != std::string::npos ||
                        line.find("\"error\"") != std::string::npos)
                << line;
            last = line;
        }
        EXPECT_EQ(count, expected);
        // The canonical line always comes last and must be served
        // cleanly no matter what the mangled one did.
        EXPECT_NE(last.find("\"results\""), std::string::npos);
        EXPECT_NE(last.find("\"errors\":0"), std::string::npos);
    }
}

// ---- JSON parser dimension --------------------------------------

/** Every strict prefix of a canonical request is invalid and must
 *  fail with a typed error (never a crash, never an accept). */
TEST(FuzzJsonParser, EveryPrefixFailsTyped)
{
    using wisync::service::ConfigCodec;
    using wisync::service::JsonError;
    using wisync::service::ParseError;

    wisync::sim::Rng rng(0x9A12);
    const std::string canonical =
        ConfigCodec::serializeRequest(faultFuzzRequest(rng, 2));
    for (std::size_t len = 0; len < canonical.size(); ++len) {
        const std::string prefix = canonical.substr(0, len);
        try {
            ConfigCodec::parseRequest(prefix);
            ADD_FAILURE() << "prefix of length " << len << " parsed";
        } catch (const ParseError &e) {
            EXPECT_FALSE(e.field().empty()) << "length " << len;
        } catch (const JsonError &e) {
            EXPECT_LE(e.offset(), len);
        }
    }
}

/** Random byte-level mutations: the parser either accepts (the
 *  mutation kept the text valid) or throws a typed error naming a
 *  field path / byte offset. Anything else escapes and fails. */
TEST(FuzzJsonParser, ByteMutationsAlwaysFailTypedOrParseCleanly)
{
    using wisync::service::ConfigCodec;
    using wisync::service::FaultPlan;
    using wisync::service::JsonError;
    using wisync::service::ParseError;

    wisync::sim::Rng rng(0x15A9);
    const std::string canonical =
        ConfigCodec::serializeRequest(faultFuzzRequest(rng, 3));
    int parsed = 0, field_errors = 0, syntax_errors = 0;
    for (int iter = 0; iter < 300; ++iter) {
        const std::string text = FaultPlan::mutateLine(canonical, rng);
        try {
            const auto request = ConfigCodec::parseRequest(text);
            EXPECT_LE(request.points.size(), 3u);
            ++parsed;
        } catch (const ParseError &e) {
            EXPECT_FALSE(e.field().empty());
            ++field_errors;
        } catch (const JsonError &e) {
            EXPECT_LE(e.offset(), text.size());
            ++syntax_errors;
        }
    }
    // The corpus must actually exercise the error paths.
    EXPECT_GT(field_errors + syntax_errors, 100);
}

} // namespace
