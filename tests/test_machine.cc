/**
 * @file
 * Tests for MachineConfig (Tables 1/2/6) and the Machine facade.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "core/machine_config.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::core::ThreadCtx;
using wisync::core::Variant;
using wisync::coro::Task;
using wisync::sim::Addr;
using wisync::sim::BmAddr;
using wisync::sim::Cycle;
using wisync::sim::NodeId;

TEST(MachineConfig, KindsMapToHardware)
{
    const auto base = MachineConfig::make(ConfigKind::Baseline, 16);
    EXPECT_FALSE(base.hasWireless());
    EXPECT_FALSE(base.hasTone());
    EXPECT_FALSE(base.mesh.treeMulticast);

    const auto plus = MachineConfig::make(ConfigKind::BaselinePlus, 16);
    EXPECT_FALSE(plus.hasWireless());
    EXPECT_TRUE(plus.mesh.treeMulticast);

    const auto not_ = MachineConfig::make(ConfigKind::WiSyncNoT, 16);
    EXPECT_TRUE(not_.hasWireless());
    EXPECT_FALSE(not_.hasTone());

    const auto full = MachineConfig::make(ConfigKind::WiSync, 16);
    EXPECT_TRUE(full.hasWireless());
    EXPECT_TRUE(full.hasTone());
}

TEST(MachineConfig, Table6Variants)
{
    const auto def = MachineConfig::make(ConfigKind::WiSync, 16);
    EXPECT_EQ(def.mesh.hopCycles, 4u);
    EXPECT_EQ(def.mem.l2RtCycles, 6u);
    EXPECT_EQ(def.bm.bmRtCycles, 2u);

    const auto slow =
        MachineConfig::make(ConfigKind::WiSync, 16, Variant::SlowNet);
    EXPECT_EQ(slow.mesh.hopCycles, 6u);

    const auto slow_l2 =
        MachineConfig::make(ConfigKind::WiSync, 16, Variant::SlowNetL2);
    EXPECT_EQ(slow_l2.mesh.hopCycles, 6u);
    EXPECT_EQ(slow_l2.mem.l2RtCycles, 12u);

    const auto fast =
        MachineConfig::make(ConfigKind::WiSync, 16, Variant::FastNet);
    EXPECT_EQ(fast.mesh.hopCycles, 2u);

    const auto slow_bm =
        MachineConfig::make(ConfigKind::WiSync, 16, Variant::SlowBmem);
    EXPECT_EQ(slow_bm.bm.bmRtCycles, 4u);
}

TEST(MachineConfig, Table1Defaults)
{
    const auto cfg = MachineConfig::make(ConfigKind::WiSync, 64);
    EXPECT_EQ(cfg.issueWidth, 2u);                    // 2-issue core
    EXPECT_EQ(cfg.mem.l1SizeBytes, 32u * 1024);       // 32KB L1
    EXPECT_EQ(cfg.mem.l1Assoc, 2u);                   // 2-way
    EXPECT_EQ(cfg.mem.l1RtCycles, 2u);                // 2-cycle RT
    EXPECT_EQ(cfg.mem.l2BankSizeBytes, 512u * 1024);  // 512KB banks
    EXPECT_EQ(cfg.mem.l2Assoc, 8u);                   // 8-way
    EXPECT_EQ(cfg.mem.dramRtCycles, 110u);            // 110-cycle RT
    EXPECT_EQ(cfg.mem.numMemCtrls, 4u);               // 4 controllers
    EXPECT_EQ(cfg.mesh.linkBits, 128u);               // 128-bit links
    EXPECT_EQ(cfg.bm.bmBytes, 16u * 1024);            // 16KB BM
    EXPECT_EQ(cfg.wireless.dataCycles, 5u);           // 5-cycle transfer
    EXPECT_EQ(cfg.wireless.collisionCycles, 2u);      // detect cycle 2
}

TEST(Machine, BaselineHasNoBm)
{
    Machine m(MachineConfig::make(ConfigKind::Baseline, 16));
    EXPECT_EQ(m.bm(), nullptr);
}

TEST(Machine, WiSyncHasBmAndTone)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 16));
    ASSERT_NE(m.bm(), nullptr);
    EXPECT_TRUE(m.bm()->hasTone());

    Machine m2(MachineConfig::make(ConfigKind::WiSyncNoT, 16));
    ASSERT_NE(m2.bm(), nullptr);
    EXPECT_FALSE(m2.bm()->hasTone());
}

TEST(Machine, ThreadsRunToCompletion)
{
    Machine m(MachineConfig::make(ConfigKind::Baseline, 4));
    int done = 0;
    for (NodeId n = 0; n < 4; ++n) {
        m.spawnThread(n, [&done](ThreadCtx &ctx) -> Task<void> {
            co_await ctx.compute(100);
            ++done;
        });
    }
    EXPECT_EQ(m.liveThreads(), 4u);
    EXPECT_TRUE(m.run());
    EXPECT_EQ(done, 4);
    EXPECT_EQ(m.liveThreads(), 0u);
}

TEST(Machine, ComputeChargesIssueWidthCycles)
{
    Machine m(MachineConfig::make(ConfigKind::Baseline, 1));
    Cycle took = 0;
    m.spawnThread(0, [&](ThreadCtx &ctx) -> Task<void> {
        co_await ctx.compute(100); // 2-issue -> 50 cycles
        took = ctx.machine().engine().now();
    });
    m.run();
    EXPECT_EQ(took, 50u);
}

TEST(Machine, ThreadsTalkThroughSharedMemory)
{
    Machine m(MachineConfig::make(ConfigKind::Baseline, 2));
    const Addr flag = m.allocMem(8);
    std::uint64_t got = 0;
    m.spawnThread(0, [&](ThreadCtx &ctx) -> Task<void> {
        co_await ctx.compute(500);
        co_await ctx.store(flag, 7);
    });
    m.spawnThread(1, [&](ThreadCtx &ctx) -> Task<void> {
        got = co_await ctx.spinWhile(flag, 0);
    });
    EXPECT_TRUE(m.run());
    EXPECT_EQ(got, 7u);
}

TEST(Machine, ThreadsTalkThroughBm)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 2));
    // Tag a BM word for PID 1 directly (OS-level allocation is tested
    // in the sync layer).
    m.bm()->storeArray().setTag(0, 1);
    std::uint64_t got = 0;
    m.spawnThread(0, [&](ThreadCtx &ctx) -> Task<void> {
        co_await ctx.compute(100);
        co_await ctx.bmStore(0, 99);
    });
    m.spawnThread(1, [&](ThreadCtx &ctx) -> Task<void> {
        got = co_await ctx.bmSpinWhile(0, 0);
    });
    EXPECT_TRUE(m.run());
    EXPECT_EQ(got, 99u);
}

TEST(Machine, MemAllocatorAligns)
{
    Machine m(MachineConfig::make(ConfigKind::Baseline, 1));
    const Addr a = m.allocMem(8, 64);
    const Addr b = m.allocMem(100, 64);
    const Addr c = m.allocMem(8, 64);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_EQ(c % 64, 0u);
    EXPECT_GE(b, a + 8);
    EXPECT_GE(c, b + 100);
}

TEST(Machine, BmAllocatorExhausts)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 2));
    BmAddr addr = 0;
    const std::uint32_t cap = m.bm()->config().words();
    EXPECT_TRUE(m.allocBm(cap - 1, addr));
    EXPECT_EQ(addr, 0u);
    EXPECT_TRUE(m.allocBm(1, addr));
    EXPECT_EQ(addr, cap - 1);
    EXPECT_FALSE(m.allocBm(1, addr)) << "BM exhausted -> fall back";
}

TEST(Machine, RunWithLimitReportsUnfinished)
{
    Machine m(MachineConfig::make(ConfigKind::Baseline, 1));
    m.spawnThread(0, [](ThreadCtx &ctx) -> Task<void> {
        co_await ctx.compute(1'000'000); // 500k cycles
    });
    EXPECT_FALSE(m.run(1000));
    EXPECT_EQ(m.liveThreads(), 1u);
    EXPECT_TRUE(m.run()); // finish the remainder
}

} // namespace

// --- Context switching and thread migration (paper §5.2) -----------

#include "bm/bm_system.hh"
#include "sync/wisync_sync.hh"

#include "sync/factory.hh"

namespace {

TEST(Migration, PreemptedThreadSeesBmUpdatesOnResume)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 4));
    m.bm()->storeArray().setTag(0, 1);
    std::uint64_t seen = 0;
    m.spawnThread(0, [&](ThreadCtx &ctx) -> Task<void> {
        co_await ctx.preempt(5000); // descheduled while node 1 writes
        seen = co_await ctx.bmLoad(0);
    });
    m.spawnThread(1, [&](ThreadCtx &ctx) -> Task<void> {
        co_await ctx.compute(100);
        co_await ctx.bmStore(0, 777);
    });
    EXPECT_TRUE(m.run());
    EXPECT_EQ(seen, 777u);
}

TEST(Migration, MigratedThreadResumesSeamlessly)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 8));
    m.bm()->storeArray().setTag(0, 1);
    const auto mem_addr = m.allocMem(8);
    std::uint64_t bm_seen = 0, mem_seen = 0;
    wisync::sim::NodeId node_after = 0;
    m.spawnThread(2, [&](ThreadCtx &ctx) -> Task<void> {
        co_await ctx.bmStore(0, 42);        // write from node 2
        co_await ctx.store(mem_addr, 43);   // dirty line at node 2
        co_await ctx.migrate(6);
        node_after = ctx.node();
        bm_seen = co_await ctx.bmLoad(0);   // identical replica
        mem_seen = co_await ctx.load(mem_addr); // coherence supplies
    });
    EXPECT_TRUE(m.run());
    EXPECT_EQ(node_after, 6u);
    EXPECT_EQ(bm_seen, 42u);
    EXPECT_EQ(mem_seen, 43u);
}

TEST(Migration, RefusedWhileToneBarrierArmsNode)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 4));
    wisync::sync::SyncFactory factory(m);
    std::vector<wisync::sim::NodeId> nodes{0, 1, 2, 3};
    auto barrier = factory.makeBarrier(nodes); // tone: arms all nodes
    bool refused = false;
    m.spawnThread(0, [&](ThreadCtx &ctx) -> Task<void> {
        try {
            co_await ctx.migrate(1);
        } catch (const std::runtime_error &) {
            refused = true;
        }
    });
    EXPECT_TRUE(m.run());
    EXPECT_TRUE(refused);
    (void)barrier;
}

TEST(Migration, AllowedOnWiSyncNoT)
{
    // Without the Tone channel there is no per-node armed state, so
    // migration is always legal (§5.2).
    Machine m(MachineConfig::make(ConfigKind::WiSyncNoT, 4));
    bool migrated = false;
    m.spawnThread(0, [&](ThreadCtx &ctx) -> Task<void> {
        co_await ctx.migrate(3);
        migrated = ctx.node() == 3;
    });
    EXPECT_TRUE(m.run());
    EXPECT_TRUE(migrated);
}

} // namespace
