/**
 * @file
 * Machine-level tests of the pooled coherence directory (the map
 * itself is covered by test_pooled_map.cc): a reset-reused machine
 * serves its directory from the pool, and a multi-threaded sweep smoke
 * test (one simulator per host thread — run it under TSan to prove the
 * parallel sweep shares nothing).
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "harness/parallel_sweep.hh"
#include "workloads/tight_loop.hh"

namespace {

/**
 * Machine-level recycling: the same machine reset across sweep points
 * must stop allocating directory entries once the pool is warm.
 */
TEST(DirTable, MachineResetServesDirectoryFromPool)
{
    using wisync::core::ConfigKind;
    using wisync::core::MachineConfig;
    wisync::workloads::TightLoopParams params;
    params.iterations = 2;

    wisync::core::Machine machine(
        MachineConfig::make(ConfigKind::Baseline, 8));
    const auto first = wisync::workloads::runTightLoopOn(machine, params);
    ASSERT_TRUE(first.completed);
    const auto warm = machine.mem().dirPoolStats();
    EXPECT_GT(warm.allocated, 0u);

    machine.reset();
    const auto second = wisync::workloads::runTightLoopOn(machine, params);
    EXPECT_EQ(first.cycles, second.cycles);
    const auto after = machine.mem().dirPoolStats();
    // Same workload, same line set: the second run allocates nothing
    // new and serves every entry from the free lists.
    EXPECT_EQ(after.allocated, warm.allocated);
    EXPECT_GE(after.recycled, warm.allocated);
}

/**
 * Multi-threaded sweep smoke test: four workers each running private
 * machines (and therefore private directories). Under TSan (the CI
 * tsan job runs exactly this binary) any accidental sharing between
 * the per-worker simulators shows up as a race report.
 */
TEST(DirTable, ParallelSweepSmokeIsThreadClean)
{
    using wisync::core::ConfigKind;
    using wisync::core::MachineConfig;
    using wisync::harness::ParallelSweep;

    wisync::workloads::TightLoopParams params;
    params.iterations = 2;
    ParallelSweep sweep;
    for (int rep = 0; rep < 2; ++rep) {
        for (const auto kind :
             {ConfigKind::Baseline, ConfigKind::BaselinePlus,
              ConfigKind::WiSyncNoT, ConfigKind::WiSync}) {
            sweep.add(MachineConfig::make(kind, 8),
                      [params](wisync::core::Machine &m) {
                          return wisync::workloads::runTightLoopOn(m,
                                                                   params);
                      });
        }
    }
    const auto serial = sweep.run(1);
    const auto parallel = sweep.run(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(parallel[i].completed);
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles);
    }
}

} // namespace
