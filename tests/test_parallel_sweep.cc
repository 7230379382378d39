/**
 * @file
 * Golden determinism tests for harness::ParallelSweep: every figure
 * grid must merge to the same KernelResult vector at 1, 2 and N host
 * threads — parallelism may only change wall time, never a single
 * simulated bit. Includes a forced straggler inversion (completion
 * order made maximally different from grid order) and the driver's
 * edge cases (empty grid, more workers than points, index order).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/machine.hh"
#include "harness/parallel_sweep.hh"
#include "workloads/apps.hh"
#include "workloads/cas_kernels.hh"
#include "workloads/livermore.hh"
#include "workloads/tight_loop.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::harness::ParallelSweep;
using wisync::harness::PointOutcome;
using wisync::workloads::KernelResult;

/**
 * Every observable field of a KernelResult, as integers (the double
 * via its bit pattern), so vectors can be compared exactly — the
 * "byte-identical" contract without reading struct padding.
 */
std::vector<std::uint64_t>
fingerprint(const std::vector<KernelResult> &results)
{
    std::vector<std::uint64_t> out;
    out.reserve(results.size() * 9);
    for (const auto &r : results) {
        out.push_back(r.cycles);
        out.push_back(r.completed ? 1 : 0);
        out.push_back(r.operations);
        out.push_back(std::bit_cast<std::uint64_t>(
            r.dataChannelUtilisation));
        out.push_back(r.collisions);
        out.push_back(r.macBackoffCycles);
        out.push_back(r.macTokenWaits);
        out.push_back(r.macTokenRotations);
        out.push_back(r.macModeSwitches);
    }
    return out;
}

void
expectIdenticalAcrossThreadCounts(ParallelSweep &sweep)
{
    const auto serial = fingerprint(sweep.run(1));
    EXPECT_EQ(serial, fingerprint(sweep.run(2)));
    EXPECT_EQ(serial, fingerprint(sweep.run(4)));
    const unsigned n = ParallelSweep::threads();
    if (n != 1 && n != 2 && n != 4) {
        EXPECT_EQ(serial, fingerprint(sweep.run(n)));
    }
}

/** The Fig. 7 grid: every ConfigKind over two core counts. */
TEST(ParallelSweep, TightLoopGridDeterministicAcrossThreads)
{
    wisync::workloads::TightLoopParams params;
    params.iterations = 3;
    ParallelSweep sweep;
    for (const auto cores : {8u, 16u}) {
        for (const auto kind :
             {ConfigKind::Baseline, ConfigKind::BaselinePlus,
              ConfigKind::WiSyncNoT, ConfigKind::WiSync}) {
            sweep.add(MachineConfig::make(kind, cores),
                      [params](Machine &m) {
                          return wisync::workloads::runTightLoopOn(m,
                                                                   params);
                      });
        }
    }
    expectIdenticalAcrossThreadCounts(sweep);
}

/** The Fig. 8 grid: Livermore loops over vector lengths. */
TEST(ParallelSweep, LivermoreGridDeterministicAcrossThreads)
{
    using wisync::workloads::LivermoreLoop;
    ParallelSweep sweep;
    for (const auto loop : {LivermoreLoop::Iccg, LivermoreLoop::InnerProduct,
                            LivermoreLoop::LinearRecurrence}) {
        for (const auto n : {16u, 64u}) {
            wisync::workloads::LivermoreParams params;
            params.n = n;
            params.passes = 1;
            for (const auto kind :
                 {ConfigKind::Baseline, ConfigKind::WiSync}) {
                sweep.add(MachineConfig::make(kind, 8),
                          [loop, params](Machine &m) {
                              return wisync::workloads::runLivermoreOn(
                                  loop, m, params);
                          });
            }
        }
    }
    expectIdenticalAcrossThreadCounts(sweep);
}

/** The Fig. 9 grid: CAS kernels over critical-section sizes. */
TEST(ParallelSweep, CasGridDeterministicAcrossThreads)
{
    using wisync::workloads::CasKernel;
    ParallelSweep sweep;
    for (const auto kernel :
         {CasKernel::Fifo, CasKernel::Lifo, CasKernel::Add}) {
        for (const auto cs : {64u, 1024u}) {
            wisync::workloads::CasKernelParams params;
            params.criticalSectionInstr = cs;
            params.duration = 50'000;
            for (const auto kind :
                 {ConfigKind::Baseline, ConfigKind::WiSync}) {
                sweep.add(MachineConfig::make(kind, 8),
                          [kernel, params](Machine &m) {
                              return wisync::workloads::runCasKernelOn(
                                  kernel, m, params);
                          });
            }
        }
    }
    expectIdenticalAcrossThreadCounts(sweep);
}

/** A Fig. 10/11-shaped slice: apps across kinds and variants. */
TEST(ParallelSweep, AppGridDeterministicAcrossThreads)
{
    using wisync::core::Variant;
    ParallelSweep sweep;
    for (const auto *name : {"streamcluster", "fft"}) {
        const auto &app = wisync::workloads::appByName(name);
        for (const auto variant : {Variant::Default, Variant::SlowNet}) {
            for (const auto kind :
                 {ConfigKind::Baseline, ConfigKind::BaselinePlus,
                  ConfigKind::WiSync}) {
                sweep.add(MachineConfig::make(kind, 8, variant),
                          [&app](Machine &m) {
                              return wisync::workloads::runAppOn(app, m);
                          });
            }
        }
    }
    expectIdenticalAcrossThreadCounts(sweep);
}

/**
 * Straggler inversion: the first grid point is forced (by a host-side
 * sleep) to *complete* last, while later points finish immediately.
 * The merged vector must still come back in grid order with every
 * simulated value matching the serial run — completion order is an
 * implementation detail the merge must erase.
 */
TEST(ParallelSweep, StragglerInversionPreservesGridOrder)
{
    wisync::workloads::TightLoopParams params;
    params.iterations = 2;

    auto declare = [&](bool straggle,
                       std::shared_ptr<std::vector<int>> completion_order) {
        ParallelSweep sweep;
        auto order_mutex = std::make_shared<std::mutex>();
        for (int p = 0; p < 6; ++p) {
            const auto kind =
                p % 2 == 0 ? ConfigKind::Baseline : ConfigKind::WiSync;
            sweep.add(
                MachineConfig::make(kind, 4 + 4 * (p % 3)),
                [straggle, p, params, completion_order,
                 order_mutex](Machine &m) {
                    if (straggle && p == 0)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(120));
                    auto r = wisync::workloads::runTightLoopOn(m, params);
                    if (completion_order != nullptr) {
                        std::lock_guard<std::mutex> g(*order_mutex);
                        completion_order->push_back(p);
                    }
                    return r;
                });
        }
        return sweep;
    };

    auto reference_sweep = declare(false, nullptr);
    const auto reference = fingerprint(reference_sweep.run(1));

    auto completion_order = std::make_shared<std::vector<int>>();
    auto straggler_sweep = declare(true, completion_order);
    const auto parallel = fingerprint(straggler_sweep.run(3));

    EXPECT_EQ(reference, parallel);
    ASSERT_EQ(completion_order->size(), 6u);
    // With point 0 sleeping 120 ms and every other point millisecond-
    // scale, point 0 must not have completed first; on a multi-core
    // host it completes last.
    EXPECT_NE(completion_order->front(), 0);
}

TEST(ParallelSweep, EmptyGridAndExcessWorkers)
{
    ParallelSweep empty;
    EXPECT_TRUE(empty.run(4).empty());

    wisync::workloads::TightLoopParams params;
    params.iterations = 1;
    ParallelSweep one;
    one.add(MachineConfig::make(ConfigKind::WiSync, 4),
            [params](Machine &m) {
                return wisync::workloads::runTightLoopOn(m, params);
            });
    // More workers than points: clamped, still exactly one result.
    const auto a = one.run(8);
    const auto b = one.run(1);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
}

/**
 * Streaming contract: the onOutcomeComplete observer sees every point
 * exactly once, with the same result the merged vector ends up
 * holding, on both the serial path and multi-worker runs — and its
 * presence must not perturb the merged results.
 */
TEST(ParallelSweep, StreamsEachPointExactlyOnce)
{
    wisync::workloads::TightLoopParams params;
    params.iterations = 2;
    auto declare = [&] {
        ParallelSweep sweep;
        for (const auto kind :
             {ConfigKind::Baseline, ConfigKind::WiSyncNoT,
              ConfigKind::WiSync}) {
            for (const std::uint32_t cores : {4u, 8u})
                sweep.add(MachineConfig::make(kind, cores),
                          [params](Machine &m) {
                              return wisync::workloads::runTightLoopOn(
                                  m, params);
                          });
        }
        return sweep;
    };

    auto plain = declare();
    const auto reference = plain.run(1);

    for (const unsigned threads : {1u, 3u}) {
        auto sweep = declare();
        std::mutex mutex;
        std::vector<int> seen(reference.size(), 0);
        std::vector<KernelResult> streamed(reference.size());
        sweep.onOutcomeComplete(
            [&](std::size_t index, const PointOutcome &o) {
                std::lock_guard<std::mutex> g(mutex);
                ASSERT_LT(index, seen.size());
                EXPECT_TRUE(o.ok);
                ++seen[index];
                streamed[index] = o.result;
            });
        const auto merged = sweep.run(threads);
        EXPECT_EQ(fingerprint(merged), fingerprint(reference))
            << "threads=" << threads;
        EXPECT_EQ(fingerprint(streamed), fingerprint(merged))
            << "threads=" << threads;
        for (std::size_t i = 0; i < seen.size(); ++i)
            EXPECT_EQ(seen[i], 1) << "point " << i << " threads "
                                  << threads;
    }
}

/**
 * The idle path: with far more workers than distinct queue blocks,
 * most workers find nothing (or run dry early) and must park on the
 * drain condition variable, then exit cleanly when the last point
 * lands. A straggler keeps one worker busy while the others idle.
 */
TEST(ParallelSweep, IdleWorkersParkUntilGridDrains)
{
    wisync::workloads::TightLoopParams quick;
    quick.iterations = 1;
    wisync::workloads::TightLoopParams slow;
    slow.iterations = 30;

    ParallelSweep sweep;
    // Point 0 is the straggler; the rest are tiny, so workers 1..5
    // drain their queues long before worker 0 finishes and take the
    // cv wait.
    sweep.add(MachineConfig::make(ConfigKind::WiSync, 16),
              [slow](Machine &m) {
                  return wisync::workloads::runTightLoopOn(m, slow);
              });
    for (int i = 0; i < 5; ++i)
        sweep.add(MachineConfig::make(ConfigKind::Baseline, 4),
                  [quick](Machine &m) {
                      return wisync::workloads::runTightLoopOn(m, quick);
                  });
    const auto parallel = sweep.run(6);
    const auto serial = sweep.run(1);
    EXPECT_EQ(fingerprint(parallel), fingerprint(serial));
}

TEST(ParallelSweep, AddReturnsDenseIndices)
{
    wisync::workloads::TightLoopParams params;
    params.iterations = 1;
    ParallelSweep sweep;
    for (std::size_t i = 0; i < 5; ++i) {
        const auto idx =
            sweep.add(MachineConfig::make(ConfigKind::Baseline, 4),
                      [params](Machine &m) {
                          return wisync::workloads::runTightLoopOn(m,
                                                                   params);
                      });
        EXPECT_EQ(idx, i);
    }
    EXPECT_EQ(sweep.size(), 5u);
}

} // namespace
