/**
 * @file
 * Same-process A/B of the parallel sweep driver: one TightLoop figure
 * grid, run serially (1 worker) and at the environment's worker count
 * (WISYNC_SWEEP_THREADS, default hardware concurrency). The exit
 * status gates two claims:
 *
 *  - the parallel results merge bit-identically to the serial ones;
 *  - N workers beat the serial sweep by >= 1.5x in wall time
 *    (interleaved best-of-7), checked only in optimized,
 *    uninstrumented builds with at least 2 workers; otherwise the
 *    bench exits with kSkipTimingGates once the identity holds.
 */

#include <cstdio>
#include <vector>

#include "harness/parallel_sweep.hh"
#include "timing_gate.hh"
#include "workloads/kernel_result.hh"
#include "workloads/tight_loop.hh"

using namespace wisync;

namespace {

bool
allIdentical(const std::vector<workloads::KernelResult> &a,
             const std::vector<workloads::KernelResult> &b)
{
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i)
        same = workloads::bitIdentical(a[i], b[i]);
    return same;
}

} // namespace

int
main()
{
    using core::ConfigKind;

    // The Fig. 7 grid at a fixed bench scale — deliberately *not*
    // scaled down by WISYNC_QUICK: the gated ratio needs a stable
    // measurement (~0.2 s serial; a quick-mode ~30 ms grid would put
    // host noise inside the gate margin). At this scale the worst
    // single point is ~23% of serial time, so the parallel leg's
    // straggler bound (~4x) sits well above the 1.5x gate.
    const std::vector<std::uint32_t> cores = {16, 32, 64};
    workloads::TightLoopParams params;
    params.iterations = 40;

    harness::ParallelSweep sweep;
    for (const auto n : cores) {
        for (const auto kind :
             {ConfigKind::Baseline, ConfigKind::BaselinePlus,
              ConfigKind::WiSyncNoT, ConfigKind::WiSync}) {
            sweep.add(core::MachineConfig::make(kind, n),
                      [params](core::Machine &m) {
                          return workloads::runTightLoopOn(m, params);
                      });
        }
    }

    const unsigned threads = harness::ParallelSweep::threads();
    const auto serial = sweep.run(1);
    const bool identical = allIdentical(serial, sweep.run(threads));
    std::printf("tightloop grid, %zu points, %u threads\n", sweep.size(),
                threads);
    std::printf("serial == parallel: %s\n", identical ? "yes" : "NO");
    if (!identical)
        return 1;

    if (!bench::kTimingGatesApply || threads < 2) {
        std::puts("parallel speedup gate skipped: needs an optimized, "
                  "uninstrumented build and >= 2 workers");
        return bench::kSkipTimingGates;
    }
    const double speedup = bench::interleavedRatio(
        [&] { (void)sweep.run(threads); }, [&] { (void)sweep.run(1); },
        7);
    return bench::gateAtLeast("sweep parallel speedup", speedup, 1.5) ? 0
                                                                      : 1;
}
