/**
 * @file
 * Reset-equivalence golden tests.
 *
 * The Machine::reset contract: a reset machine is observationally
 * identical to a freshly constructed one — same event ordering, same
 * RNG streams, bit-identical stats, cycle counts and final memory/BM
 * contents for the same workload. Verified here for every ConfigKind
 * (each exercises a different sync library: CAS/centralized barrier,
 * MCS/tournament, BM/Data-channel, BM/Tone) crossed with a grid of
 * workloads (barrier-storm TightLoop, lock-free CAS kernels, the
 * lock+barrier synthetic app), plus the nasty cases: reset after a
 * *partial* run (threads and hardware transactions destroyed
 * mid-flight), reset that retimes the machine to a different
 * variant, and a build on tag arrays recycled from a dirty machine.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#if defined(__linux__)
#include <malloc.h>
#endif

#include "core/machine.hh"
#include "coro/frame_pool.hh"
#include "coro/primitives.hh"
#include "harness/sweep.hh"
#include "mem/cache.hh"
#include "workloads/apps.hh"
#include "workloads/cas_kernels.hh"
#include "workloads/kernel_result.hh"
#include "workloads/livermore.hh"
#include "workloads/tight_loop.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::core::Variant;
using wisync::mem::CacheArray;
using wisync::workloads::KernelResult;

/** Everything observable we can cheaply capture after a run. */
struct Snapshot
{
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t memFingerprint = 0;
    std::uint64_t memWords = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t meshMessages = 0;
    std::uint64_t meshFlits = 0;
    std::uint64_t bmFingerprint = 0;
    std::uint64_t bmLoads = 0;
    std::uint64_t bmStores = 0;
    std::uint64_t bmRmws = 0;
    std::uint64_t afbFailures = 0;
    std::uint64_t wirelessMessages = 0;
    std::uint64_t collisions = 0;
    std::uint64_t toneReleases = 0;

    bool operator==(const Snapshot &) const = default;
};

Snapshot
capture(Machine &m)
{
    Snapshot s;
    s.cycles = m.engine().now();
    s.events = m.engine().eventsExecuted();
    s.memFingerprint = m.memory().fingerprint();
    s.memWords = m.memory().footprintWords();
    const auto &ms = m.mem().stats();
    s.loads = ms.loads.value();
    s.stores = ms.stores.value();
    s.l1Hits = ms.l1Hits.value();
    s.l1Misses = ms.l1Misses.value();
    s.invalidations = ms.invalidations.value();
    s.writebacks = ms.writebacks.value();
    s.meshMessages = m.mesh().stats().messages.value();
    s.meshFlits = m.mesh().stats().flits.value();
    if (m.bm() != nullptr) {
        s.bmFingerprint = m.bm()->storeArray().fingerprint();
        const auto &bs = m.bm()->stats();
        s.bmLoads = bs.loads.value();
        s.bmStores = bs.stores.value();
        s.bmRmws = bs.rmws.value();
        s.afbFailures = bs.afbFailures.value();
        const auto &cs = m.bm()->dataChannel().stats();
        s.wirelessMessages = cs.messages.value();
        s.collisions = cs.collisions.value();
        if (m.bm()->hasTone())
            s.toneReleases = m.bm()->toneChannel()->stats()
                                 .releases.value();
    }
    return s;
}

/** Field-by-field comparison for readable failures. */
void
expectEqual(const Snapshot &a, const Snapshot &b, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.memFingerprint, b.memFingerprint);
    EXPECT_EQ(a.memWords, b.memWords);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.meshMessages, b.meshMessages);
    EXPECT_EQ(a.meshFlits, b.meshFlits);
    EXPECT_EQ(a.bmFingerprint, b.bmFingerprint);
    EXPECT_EQ(a.bmLoads, b.bmLoads);
    EXPECT_EQ(a.bmStores, b.bmStores);
    EXPECT_EQ(a.bmRmws, b.bmRmws);
    EXPECT_EQ(a.afbFailures, b.afbFailures);
    EXPECT_EQ(a.wirelessMessages, b.wirelessMessages);
    EXPECT_EQ(a.collisions, b.collisions);
    EXPECT_EQ(a.toneReleases, b.toneReleases);
    EXPECT_TRUE(a == b); // catches any field added later
}

/** One workload of the grid: run it to completion on @p m. */
struct Workload
{
    const char *name;
    std::function<KernelResult(Machine &)> run;
};

const std::vector<Workload> &
workloadGrid()
{
    static const std::vector<Workload> grid = {
        {"tightloop",
         [](Machine &m) {
             wisync::workloads::TightLoopParams p;
             p.iterations = 4;
             p.arrayElems = 16;
             return wisync::workloads::runTightLoopOn(m, p);
         }},
        {"cas-add",
         [](Machine &m) {
             wisync::workloads::CasKernelParams p;
             p.criticalSectionInstr = 64;
             p.duration = 20'000;
             return wisync::workloads::runCasKernelOn(
                 wisync::workloads::CasKernel::Add, m, p);
         }},
        {"app-blackscholes",
         [](Machine &m) {
             return wisync::workloads::runAppOn(
                 wisync::workloads::appByName("blackscholes"), m);
         }},
    };
    return grid;
}

class ResetEquivalence
    : public ::testing::TestWithParam<std::tuple<ConfigKind, int>>
{};

INSTANTIATE_TEST_SUITE_P(
    Grid, ResetEquivalence,
    ::testing::Combine(::testing::Values(ConfigKind::Baseline,
                                         ConfigKind::BaselinePlus,
                                         ConfigKind::WiSyncNoT,
                                         ConfigKind::WiSync),
                       ::testing::Values(0, 1, 2)),
    [](const auto &info) {
        std::string name =
            std::string(wisync::core::toString(std::get<0>(info.param))) +
            "_" +
            workloadGrid()[static_cast<std::size_t>(std::get<1>(
                               info.param))]
                .name;
        for (auto &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST_P(ResetEquivalence, ResetMachineMatchesFreshBitForBit)
{
    const auto [kind, wl] = GetParam();
    const auto &workload = workloadGrid()[static_cast<std::size_t>(wl)];
    const auto cfg = MachineConfig::make(kind, 8);

    // Golden run on a fresh machine.
    Machine fresh(cfg);
    workload.run(fresh);
    const Snapshot golden = capture(fresh);

    // Dirty a second machine with a different workload, then reset and
    // replay: every observable must match the golden run.
    Machine reused(cfg);
    const auto dirty = (static_cast<std::size_t>(wl) + 1) %
                       workloadGrid().size();
    workloadGrid()[dirty].run(reused);
    reused.reset();
    workload.run(reused);
    expectEqual(golden, capture(reused), "after completed-run reset");

    // Reset again without running anything in between (idempotence).
    reused.reset();
    workload.run(reused);
    expectEqual(golden, capture(reused), "after back-to-back reset");
}

TEST_P(ResetEquivalence, ResetMidRunDestroysInFlightStateCleanly)
{
    const auto [kind, wl] = GetParam();
    const auto &workload = workloadGrid()[static_cast<std::size_t>(wl)];
    const auto cfg = MachineConfig::make(kind, 8);

    Machine fresh(cfg);
    workload.run(fresh);
    const Snapshot golden = capture(fresh);

    // Interrupt the same workload mid-flight: spawn it, run only a
    // few hundred cycles (threads parked in mutexes/channels/BM
    // retries), then reset. The replay must still be bit-identical.
    Machine reused(cfg);
    {
        wisync::workloads::TightLoopParams p;
        p.iterations = 50;
        p.runLimit = 300; // guaranteed incomplete
        wisync::workloads::runTightLoopOn(reused, p);
        EXPECT_GT(reused.liveThreads(), 0u);
    }
    reused.reset();
    EXPECT_EQ(reused.liveThreads(), 0u);
    EXPECT_EQ(reused.engine().now(), 0u);
    EXPECT_EQ(reused.engine().pendingEvents(), 0u);
    workload.run(reused);
    expectEqual(golden, capture(reused), "after mid-run reset");
}

TEST_P(ResetEquivalence, RecycledArraysBuildMatchesFreshBitForBit)
{
    const auto [kind, wl] = GetParam();
    const auto &workload = workloadGrid()[static_cast<std::size_t>(wl)];
    const auto cfg = MachineConfig::make(kind, 8);

    Machine fresh(cfg);
    const KernelResult golden_result = workload.run(fresh);
    const Snapshot golden = capture(fresh);

    // A dirty machine of the same shape dies with its tag arrays full
    // of current-epoch lines; the next build takes those arrays over.
    {
        Machine dirty(cfg);
        workloadGrid()[(static_cast<std::size_t>(wl) + 1) %
                       workloadGrid().size()]
            .run(dirty);
        workload.run(dirty);
    }
    const auto released = CacheArray::poolStats();
    Machine recycled(cfg);
    EXPECT_EQ(CacheArray::poolStats().recycled - released.recycled,
              2u * cfg.numCores)
        << "every L1 and L2 bank array should come from the free list";

    const KernelResult result = workload.run(recycled);
    EXPECT_TRUE(wisync::workloads::bitIdentical(golden_result, result));
    expectEqual(golden, capture(recycled), "build on recycled arrays");
}

TEST(MachineReset, RetimingResetMatchesFreshVariantMachine)
{
    // A machine built as SlowNet, dirtied, then reset with the Default
    // config must behave exactly like a fresh Default machine (and
    // vice versa): reset re-applies every timing knob.
    for (const auto kind :
         {ConfigKind::Baseline, ConfigKind::WiSync}) {
        SCOPED_TRACE(wisync::core::toString(kind));
        wisync::workloads::TightLoopParams p;
        p.iterations = 4;
        p.arrayElems = 16;

        Machine fresh(MachineConfig::make(kind, 8, Variant::Default));
        wisync::workloads::runTightLoopOn(fresh, p);
        const Snapshot golden = capture(fresh);

        Machine retimed(MachineConfig::make(kind, 8, Variant::SlowNet));
        wisync::workloads::runTightLoopOn(retimed, p);
        const Snapshot slow = capture(retimed);
        EXPECT_NE(golden.cycles, slow.cycles)
            << "variants should differ, or this test is vacuous";

        retimed.reset(MachineConfig::make(kind, 8, Variant::Default));
        wisync::workloads::runTightLoopOn(retimed, p);
        expectEqual(golden, capture(retimed), "after retiming reset");
    }
}

/** The functional store keeps its table across Machine::reset: a
 *  rerun of the same workload grows it no further (it allocates only
 *  when it grows) and reproduces the first run bit for bit. */
TEST(MachineReset, RerunAllocatesNothingInMemory)
{
    const auto run = [](Machine &m) {
        wisync::workloads::LivermoreParams p;
        p.n = 512;
        return wisync::workloads::runLivermoreOn(
            wisync::workloads::LivermoreLoop::Iccg, m, p);
    };
    Machine m(MachineConfig::make(ConfigKind::Baseline, 16));
    const KernelResult first = run(m);
    const Snapshot golden = capture(m);
    const std::size_t capacity = m.memory().capacity();
    ASSERT_GT(m.memory().footprintWords(), 512u);

    m.reset();
    EXPECT_EQ(m.memory().footprintWords(), 0u);
    const KernelResult again = run(m);
    EXPECT_EQ(m.memory().capacity(), capacity);
    EXPECT_TRUE(wisync::workloads::bitIdentical(first, again));
    expectEqual(golden, capture(m), "rerun after reset");
}

TEST(MachineReset, KindChangeThroughResetMatchesFreshKind)
{
    // ConfigKind is behavioral, not structural: one machine must move
    // between all four kinds and stay bit-identical to fresh builds.
    const ConfigKind kinds[] = {ConfigKind::WiSync, ConfigKind::Baseline,
                                ConfigKind::WiSyncNoT,
                                ConfigKind::BaselinePlus,
                                ConfigKind::WiSync};
    wisync::workloads::TightLoopParams p;
    p.iterations = 4;
    p.arrayElems = 16;

    Machine m(MachineConfig::make(kinds[0], 8));
    for (const auto kind : kinds) {
        SCOPED_TRACE(wisync::core::toString(kind));
        Machine fresh(MachineConfig::make(kind, 8));
        wisync::workloads::runTightLoopOn(fresh, p);

        m.reset(MachineConfig::make(kind, 8));
        EXPECT_EQ(m.bm() != nullptr,
                  MachineConfig::make(kind, 8).hasWireless());
        wisync::workloads::runTightLoopOn(m, p);
        expectEqual(capture(fresh), capture(m), "kind flip via reset");
    }
}

TEST(MachineReset, SeedChangeThroughResetMatchesFreshSeed)
{
    auto cfgA = MachineConfig::make(ConfigKind::WiSync, 8);
    cfgA.seed = 111;
    auto cfgB = cfgA;
    cfgB.seed = 222;

    wisync::workloads::TightLoopParams p;
    p.iterations = 4;

    Machine freshB(cfgB);
    wisync::workloads::runTightLoopOn(freshB, p);
    const Snapshot golden = capture(freshB);

    Machine m(cfgA);
    wisync::workloads::runTightLoopOn(m, p);
    m.reset(cfgB);
    wisync::workloads::runTightLoopOn(m, p);
    expectEqual(golden, capture(m), "seed change via reset");
}

TEST(SweepHarness, ReusesShapeCompatibleMachinesAndStaysGolden)
{
    wisync::harness::SweepHarness machines;
    wisync::workloads::TightLoopParams p;
    p.iterations = 3;
    p.arrayElems = 8;

    // Golden references on fresh machines.
    std::vector<Snapshot> golden;
    for (const auto v : {Variant::Default, Variant::SlowNet}) {
        Machine fresh(MachineConfig::make(ConfigKind::WiSync, 8, v));
        wisync::workloads::runTightLoopOn(fresh, p);
        golden.push_back(capture(fresh));
    }

    // The harness serves both sweep points from one machine.
    int i = 0;
    for (const auto v : {Variant::Default, Variant::SlowNet}) {
        Machine &m = machines.acquire(
            MachineConfig::make(ConfigKind::WiSync, 8, v));
        wisync::workloads::runTightLoopOn(m, p);
        expectEqual(golden[static_cast<std::size_t>(i++)], capture(m),
                    "harness sweep point");
    }
    EXPECT_EQ(machines.builds(), 1u);
    EXPECT_EQ(machines.reuses(), 1u);

    // A different shape forces a build.
    machines.acquire(MachineConfig::make(ConfigKind::WiSync, 16));
    EXPECT_GE(machines.builds(), 2u);
}

wisync::coro::Task<void>
loadOnce(Machine &m, wisync::sim::NodeId node, wisync::sim::Addr addr)
{
    co_await m.mem().load(node, addr);
}

/** An L1 miss's transaction frame belongs to its access, which lives
 *  in the awaiting thread's frame: resetting the machine with the miss
 *  parked (here on DRAM) frees it with the thread. */
TEST(MachineReset, ResetDuringAPendingMissFreesItsFrame)
{
    Machine machine(MachineConfig::make(ConfigKind::Baseline, 16));
    const std::uint64_t live = wisync::coro::framePool().liveFrames();
    wisync::coro::spawnDetached(machine.engine(),
                                loadOnce(machine, 3, 0x40000));
    EXPECT_FALSE(machine.engine().run(40));
    EXPECT_EQ(machine.mem().stats().l1Misses.value(), 1u);
    EXPECT_GT(wisync::coro::framePool().liveFrames(), live);
    machine.reset();
    EXPECT_EQ(wisync::coro::framePool().liveFrames(), live);
    EXPECT_EQ(machine.engine().pendingEvents(), 0u);
}

/**
 * The MemSystem's two evictions on a 16-core Baseline machine. Node 5
 * dirties three lines of one L1 set (2 ways, 16 KiB apart), so the
 * third store writes the first back to its home, node 0; *phase is 1
 * for the 200 cycles after it, while nothing else runs. Then nine
 * lines of one set of bank 1 (8 ways, 64 KiB apart) are read, the
 * first eight by nodes 8-15, which own their copies, and the last by
 * node 1, the home itself: its DRAM fill evicts one of the eight and
 * recalls that copy, and *phase is 2 as soon as node 1 has its data,
 * while the recall's invalidation is still on its way.
 */
wisync::coro::Task<void>
evictions(Machine &m, int *phase)
{
    for (const wisync::sim::Addr a : {0x100000, 0x104000, 0x108000})
        co_await m.mem().store(5, a, a);
    *phase = 1;
    co_await wisync::coro::delay(m.engine(), 200);
    for (wisync::sim::NodeId k = 0; k < 9; ++k)
        co_await m.mem().load(k == 8 ? 1 : 8 + k,
                              0x40 + wisync::sim::Addr{k} * 0x10000);
    *phase = 2;
}

/** Run evictions() on @p m to the end. */
KernelResult
runEvictions(Machine &m)
{
    int phase = 0;
    wisync::coro::spawnDetached(m.engine(), evictions(m, &phase));
    KernelResult r;
    r.completed = m.engine().run() && phase == 2;
    r.cycles = m.engine().now();
    r.operations = m.mem().stats().writebacks.value() +
                   m.mem().stats().l2Recalls.value();
    wisync::workloads::captureChannelStats(r, m);
    return r;
}

/** A writeback or recall is a record of the MemSystem, not a frame:
 *  resetting the machine while one is in flight (a writeback's data on
 *  the mesh, a recall waiting on its join) frees it, and the reset
 *  machine reruns bit-identical to a fresh one. */
TEST(MachineReset, ResetMidWritebackOrRecallMatchesFresh)
{
    const auto cfg = MachineConfig::make(ConfigKind::Baseline, 16);
    Machine fresh(cfg);
    const KernelResult golden = runEvictions(fresh);
    ASSERT_TRUE(golden.completed);
    ASSERT_EQ(fresh.mem().stats().writebacks.value(), 1u);
    ASSERT_EQ(fresh.mem().stats().l2Recalls.value(), 1u);
    const Snapshot golden_snap = capture(fresh);

    Machine reused(cfg);
    for (const int stop_phase : {1, 2}) {
        SCOPED_TRACE(stop_phase == 1 ? "writeback on the mesh"
                                     : "recall waiting on its join");
        int phase = 0;
        wisync::coro::spawnDetached(reused.engine(),
                                    evictions(reused, &phase));
        // Step to the first cycle of the phase with a message on the
        // mesh: the eviction's own.
        const auto &mesh = reused.mesh().stats();
        while (phase != stop_phase ||
               mesh.messages.value() == mesh.latency.count())
            ASSERT_FALSE(reused.engine().run(reused.engine().now() + 1));
        EXPECT_EQ(reused.mem().stats().writebacks.value(), 1u);
        EXPECT_EQ(reused.mem().stats().l2Recalls.value(),
                  stop_phase == 2 ? 1u : 0u);
        reused.reset();
        const KernelResult again = runEvictions(reused);
        EXPECT_TRUE(wisync::workloads::bitIdentical(golden, again));
        expectEqual(golden_snap, capture(reused), "rerun after reset");
        reused.reset();
    }
}

#if defined(__linux__)
/** Resident set size of this process, KiB (-1 if unreadable). */
long
residentKiB()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stol(line.substr(6));
    return -1;
}

TEST(MachineFootprint, BuildingA256CoreMachineCostsUnder16MB)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer shadow memory inflates the resident set";
#endif
    // Tag arrays are backed by zero-fill-on-demand pages, so a build
    // pays for its bookkeeping, not for 256 cores' worth of zeroed
    // L1/L2 tags (about 52 MB of them).
    const long before = residentKiB();
    ASSERT_GT(before, 0);
    Machine m(MachineConfig::make(ConfigKind::WiSync, 256));
    const long grown = residentKiB() - before;
    EXPECT_LT(grown, 16 * 1024) << "resident set grew by " << grown
                                << " KiB";
}

TEST(MachineFootprint, MultiChip256CoreTightLoopHeapUnder6MB)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizers replace the allocator";
#endif
    // Heap follows live work: level-0 event buckets share one pool of
    // fixed-size segments (not 256 vectors each sized for its busiest
    // cycle), and each chip keeps one BM array (not one per core).
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 256);
    cfg.numChips = 4;
    wisync::workloads::TightLoopParams params;
    params.iterations = 100;
    const std::size_t before = mallinfo2().uordblks;
    std::size_t grown = 0;
    {
        Machine m(cfg);
        const auto r = wisync::workloads::runTightLoopOn(m, params);
        ASSERT_TRUE(r.completed);
        grown = mallinfo2().uordblks - before;
    }
    EXPECT_LT(grown, std::size_t{6} << 20)
        << "heap in use grew by " << (grown >> 10) << " KiB";
}
#endif

TEST(MachineResetDeathTest, IncompatibleShapeIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Machine m(MachineConfig::make(ConfigKind::WiSync, 8));
    EXPECT_EXIT(m.reset(MachineConfig::make(ConfigKind::WiSync, 16)),
                ::testing::ExitedWithCode(1), "shape-compatible");
}

} // namespace
