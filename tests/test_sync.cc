/**
 * @file
 * Cross-configuration tests of the synchronization library: the same
 * properties (mutual exclusion, barrier separation, no lost updates)
 * must hold on Baseline, Baseline+, WiSyncNoT, and WiSync.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/machine.hh"
#include "sync/factory.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::core::ThreadCtx;
using wisync::coro::Task;
using wisync::sim::BmAddr;
using wisync::sim::Cycle;
using wisync::sim::NodeId;
using wisync::sync::Barrier;
using wisync::sync::Lock;
using wisync::sync::ProducerConsumer;
using wisync::sync::Multicaster;
using wisync::sync::SyncFactory;
using wisync::sync::ToneBarrier;

class AllConfigs : public ::testing::TestWithParam<ConfigKind>
{};

INSTANTIATE_TEST_SUITE_P(
    Configs, AllConfigs,
    ::testing::Values(ConfigKind::Baseline, ConfigKind::BaselinePlus,
                      ConfigKind::WiSyncNoT, ConfigKind::WiSync),
    [](const auto &info) {
        switch (info.param) {
          case ConfigKind::Baseline:
            return "Baseline";
          case ConfigKind::BaselinePlus:
            return "BaselinePlus";
          case ConfigKind::WiSyncNoT:
            return "WiSyncNoT";
          case ConfigKind::WiSync:
            return "WiSync";
        }
        return "Unknown";
    });

TEST_P(AllConfigs, LockProvidesMutualExclusion)
{
    constexpr std::uint32_t kThreads = 8;
    Machine m(MachineConfig::make(GetParam(), kThreads));
    SyncFactory factory(m);
    auto lock = factory.makeLock();

    int in_section = 0, peak = 0, entries = 0;
    for (NodeId n = 0; n < kThreads; ++n) {
        m.spawnThread(n, [&](ThreadCtx &ctx) -> Task<void> {
            for (int i = 0; i < 5; ++i) {
                co_await lock->acquire(ctx);
                ++in_section;
                ++entries;
                peak = std::max(peak, in_section);
                co_await ctx.compute(50);
                --in_section;
                co_await lock->release(ctx);
                co_await ctx.compute(20);
            }
        });
    }
    ASSERT_TRUE(m.run(50'000'000));
    EXPECT_EQ(peak, 1) << "two threads in the critical section";
    EXPECT_EQ(entries, static_cast<int>(kThreads) * 5);
}

TEST_P(AllConfigs, LockGuardedCounterHasNoLostUpdates)
{
    constexpr std::uint32_t kThreads = 8;
    constexpr int kIters = 10;
    Machine m(MachineConfig::make(GetParam(), kThreads));
    SyncFactory factory(m);
    auto lock = factory.makeLock();
    const auto counter = m.allocMem(8);

    for (NodeId n = 0; n < kThreads; ++n) {
        m.spawnThread(n, [&](ThreadCtx &ctx) -> Task<void> {
            for (int i = 0; i < kIters; ++i) {
                co_await lock->acquire(ctx);
                const auto v = co_await ctx.load(counter);
                co_await ctx.store(counter, v + 1);
                co_await lock->release(ctx);
            }
        });
    }
    ASSERT_TRUE(m.run(50'000'000));
    EXPECT_EQ(m.memory().read64(counter),
              static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST_P(AllConfigs, BarrierSeparatesPhases)
{
    constexpr std::uint32_t kThreads = 16;
    constexpr int kPhases = 6;
    Machine m(MachineConfig::make(GetParam(), kThreads));
    SyncFactory factory(m);
    std::vector<NodeId> nodes;
    for (NodeId n = 0; n < kThreads; ++n)
        nodes.push_back(n);
    auto barrier = factory.makeBarrier(nodes);

    std::vector<int> arrivals(kThreads, 0);
    bool violated = false;
    for (NodeId n = 0; n < kThreads; ++n) {
        m.spawnThread(n, [&, n](ThreadCtx &ctx) -> Task<void> {
            for (int p = 0; p < kPhases; ++p) {
                // Uneven work so arrivals are staggered.
                co_await ctx.compute((n + 1) * 20);
                arrivals[n] = p + 1;
                co_await barrier->wait(ctx);
                // After the barrier, everyone must have arrived at
                // phase p.
                for (std::uint32_t t = 0; t < kThreads; ++t)
                    if (arrivals[t] < p + 1)
                        violated = true;
            }
        });
    }
    ASSERT_TRUE(m.run(50'000'000));
    EXPECT_FALSE(violated);
}

TEST_P(AllConfigs, ReducerAccumulatesExactly)
{
    constexpr std::uint32_t kThreads = 8;
    constexpr int kIters = 10;
    Machine m(MachineConfig::make(GetParam(), kThreads));
    SyncFactory factory(m);
    auto red = factory.makeReducer();

    for (NodeId n = 0; n < kThreads; ++n) {
        m.spawnThread(n, [&, n](ThreadCtx &ctx) -> Task<void> {
            for (int i = 0; i < kIters; ++i)
                co_await red->add(ctx, n + 1);
        });
    }
    ASSERT_TRUE(m.run(50'000'000));

    // Sum = iters * (1 + 2 + ... + kThreads).
    std::uint64_t expect = 0;
    for (std::uint32_t n = 1; n <= kThreads; ++n)
        expect += n;
    expect *= kIters;

    Machine check(MachineConfig::make(GetParam(), 1));
    (void)check; // reader runs on the same machine:
    std::uint64_t got = 0;
    m.spawnThread(0, [&](ThreadCtx &ctx) -> Task<void> {
        got = co_await red->read(ctx);
    });
    ASSERT_TRUE(m.run(1'000'000));
    EXPECT_EQ(got, expect);
}

TEST_P(AllConfigs, OrBarrierReleasesEveryoneOnTrigger)
{
    constexpr std::uint32_t kThreads = 6;
    Machine m(MachineConfig::make(GetParam(), kThreads));
    SyncFactory factory(m);
    auto eureka = factory.makeOrBarrier();

    int woken = 0;
    Cycle trigger_at = 0;
    for (NodeId n = 1; n < kThreads; ++n) {
        m.spawnThread(n, [&](ThreadCtx &ctx) -> Task<void> {
            co_await eureka->await(ctx);
            ++woken;
        });
    }
    m.spawnThread(0, [&](ThreadCtx &ctx) -> Task<void> {
        co_await ctx.compute(2000); // "search" until the eureka moment
        trigger_at = ctx.machine().engine().now();
        co_await eureka->trigger(ctx);
    });
    ASSERT_TRUE(m.run(10'000'000));
    EXPECT_EQ(woken, static_cast<int>(kThreads) - 1);
    EXPECT_GE(trigger_at, 1000u);
}

TEST_P(AllConfigs, OrBarrierPollAndResetServeTwoEpisodes)
{
    // Two eureka episodes on one barrier: poll sees each trigger, and
    // reset() re-arms it so the next poll reads false again.
    Machine m(MachineConfig::make(GetParam(), 4));
    SyncFactory factory(m);
    auto eureka = factory.makeOrBarrier();
    std::vector<bool> polls;
    bool awaited = false;
    m.spawnThread(0, [&](ThreadCtx &ctx) -> Task<void> {
        polls.push_back(co_await eureka->poll(ctx));
        co_await eureka->trigger(ctx);
        polls.push_back(co_await eureka->poll(ctx));
        eureka->reset();
        polls.push_back(co_await eureka->poll(ctx));
        co_await eureka->trigger(ctx);
        co_await eureka->await(ctx);
        awaited = true;
        polls.push_back(co_await eureka->poll(ctx));
    });
    ASSERT_TRUE(m.run(1'000'000));
    EXPECT_EQ(polls, (std::vector<bool>{false, true, false, true}));
    EXPECT_TRUE(awaited);
}

TEST(SyncWiSync, ToneLoadReadsTheReleasedBarrierWord)
{
    // tone_ld after each tone release reads the toggled word on every
    // participant: 1 after the first episode, 0 after the second.
    constexpr std::uint32_t kThreads = 8;
    Machine m(MachineConfig::make(ConfigKind::WiSync, kThreads));
    std::vector<NodeId> nodes;
    for (NodeId n = 0; n < kThreads; ++n)
        nodes.push_back(n);
    ToneBarrier barrier(m, 1, nodes);
    std::vector<std::vector<std::uint64_t>> seen(kThreads);
    for (NodeId n = 0; n < kThreads; ++n) {
        m.spawnThread(n, [&, n](ThreadCtx &ctx) -> Task<void> {
            for (int i = 0; i < 2; ++i) {
                co_await ctx.compute(100 * n); // staggered arrivals
                co_await barrier.wait(ctx);
                const BmAddr word = barrier.address();
                seen[n].push_back(co_await ctx.toneLoad(word));
            }
        });
    }
    ASSERT_TRUE(m.run(10'000'000));
    for (NodeId n = 0; n < kThreads; ++n)
        EXPECT_EQ(seen[n], (std::vector<std::uint64_t>{1, 0}))
            << "node " << n;
}

TEST(SyncWiSync, ToneBarrierFasterThanBaselineCentral)
{
    // The headline property: a WiSync tone barrier costs a fraction of
    // a Baseline centralized barrier at the same core count.
    auto barrier_time = [](ConfigKind kind) {
        constexpr std::uint32_t kThreads = 32;
        Machine m(MachineConfig::make(kind, kThreads));
        SyncFactory factory(m);
        std::vector<NodeId> nodes;
        for (NodeId n = 0; n < kThreads; ++n)
            nodes.push_back(n);
        auto barrier = factory.makeBarrier(nodes);
        for (NodeId n = 0; n < kThreads; ++n) {
            m.spawnThread(n, [&](ThreadCtx &ctx) -> Task<void> {
                for (int i = 0; i < 10; ++i)
                    co_await barrier->wait(ctx);
            });
        }
        EXPECT_TRUE(m.run(100'000'000));
        return m.engine().now();
    };
    const Cycle baseline = barrier_time(ConfigKind::Baseline);
    const Cycle wisync = barrier_time(ConfigKind::WiSync);
    EXPECT_LT(wisync * 5, baseline)
        << "tone barrier should be >5x faster at 32 cores";
}

TEST(SyncWiSync, ToneBarrierFallsBackWhenAllocBOverflows)
{
    constexpr std::uint32_t kThreads = 4;
    auto cfg = MachineConfig::make(ConfigKind::WiSync, kThreads);
    cfg.bm.allocSlots = 1; // tiny AllocB
    Machine m(cfg);
    SyncFactory factory(m);
    std::vector<NodeId> nodes{0, 1, 2, 3};
    auto b1 = factory.makeBarrier(nodes); // takes the only slot
    auto b2 = factory.makeBarrier(nodes); // must fall back, not throw
    ASSERT_NE(b2, nullptr);

    // Both barriers still work.
    for (NodeId n = 0; n < kThreads; ++n) {
        m.spawnThread(n, [&](ThreadCtx &ctx) -> Task<void> {
            co_await b1->wait(ctx);
            co_await b2->wait(ctx);
        });
    }
    EXPECT_TRUE(m.run(10'000'000));
}

TEST(SyncWiSync, ProducerConsumerDeliversInOrder)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 2));
    ProducerConsumer pc(m, 1);
    constexpr int kMsgs = 8;
    std::vector<std::uint64_t> received;

    m.spawnThread(0, [&](ThreadCtx &ctx) -> Task<void> {
        for (int i = 0; i < kMsgs; ++i)
            co_await pc.produce(ctx, {std::uint64_t(i), std::uint64_t(i) * 2,
                                      std::uint64_t(i) * 3,
                                      std::uint64_t(i) * 4});
    });
    m.spawnThread(1, [&](ThreadCtx &ctx) -> Task<void> {
        for (int i = 0; i < kMsgs; ++i) {
            const auto data = co_await pc.consume(ctx);
            received.push_back(data[0]);
            EXPECT_EQ(data[1], data[0] * 2);
            EXPECT_EQ(data[3], data[0] * 4);
        }
    });
    ASSERT_TRUE(m.run(10'000'000));
    ASSERT_EQ(received.size(), static_cast<std::size_t>(kMsgs));
    for (int i = 0; i < kMsgs; ++i)
        EXPECT_EQ(received[static_cast<std::size_t>(i)],
                  static_cast<std::uint64_t>(i));
}

TEST(SyncWiSync, MulticastReachesAllReaders)
{
    constexpr std::uint32_t kReaders = 7;
    Machine m(MachineConfig::make(ConfigKind::WiSync, kReaders + 1));
    Multicaster mc(m, 1, kReaders);
    constexpr int kRounds = 5;
    std::vector<std::vector<std::uint64_t>> got(kReaders);

    m.spawnThread(0, [&](ThreadCtx &ctx) -> Task<void> {
        for (int r = 0; r < kRounds; ++r)
            co_await mc.publish(ctx, 100 + static_cast<std::uint64_t>(r));
    });
    for (NodeId n = 1; n <= kReaders; ++n) {
        m.spawnThread(n, [&, n](ThreadCtx &ctx) -> Task<void> {
            for (int r = 0; r < kRounds; ++r)
                got[n - 1].push_back(co_await mc.receive(ctx));
        });
    }
    ASSERT_TRUE(m.run(10'000'000));
    for (std::uint32_t r = 0; r < kReaders; ++r) {
        ASSERT_EQ(got[r].size(), static_cast<std::size_t>(kRounds));
        for (int i = 0; i < kRounds; ++i)
            EXPECT_EQ(got[r][static_cast<std::size_t>(i)],
                      100 + static_cast<std::uint64_t>(i));
    }
}

TEST(SyncBaseline, McsLockIsFifoFair)
{
    // MCS hands the lock to waiters in queue order.
    constexpr std::uint32_t kThreads = 6;
    Machine m(MachineConfig::make(ConfigKind::BaselinePlus, kThreads));
    SyncFactory factory(m);
    auto lock = factory.makeLock();
    std::vector<int> order;

    for (NodeId n = 0; n < kThreads; ++n) {
        m.spawnThread(n, [&, n](ThreadCtx &ctx) -> Task<void> {
            // Stagger arrivals so the queue order is deterministic.
            co_await ctx.compute(n * 2000);
            co_await lock->acquire(ctx);
            order.push_back(static_cast<int>(n));
            co_await ctx.compute(4000); // hold long enough to queue all
            co_await lock->release(ctx);
        });
    }
    ASSERT_TRUE(m.run(50'000'000));
    ASSERT_EQ(order.size(), kThreads);
    for (std::uint32_t i = 0; i < kThreads; ++i)
        EXPECT_EQ(order[i], static_cast<int>(i)) << "MCS order violated";
}

} // namespace
