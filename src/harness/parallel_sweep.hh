/**
 * @file
 * Multi-threaded sweep driver for figure regeneration.
 *
 * Every figure is a grid of *independent* simulations: (ConfigKind x
 * core count x workload parameters) points whose only shared state is
 * the table printed at the end. ParallelSweep lets a bench declare
 * that grid up front and fans it out over N host threads:
 *
 *   - each worker owns a private SweepHarness (machine cache), so
 *     Machine reuse via reset() keeps working per worker; the frame
 *     pool is thread-local and no scheduler state is shared between
 *     engines;
 *   - points are block-distributed over per-worker job queues and
 *     idle workers steal from the tail of a victim's queue, so a grid
 *     of wildly uneven point costs (256-core points next to 16-core
 *     ones) still load-balances;
 *   - results are merged by point index, so the returned vector is in
 *     add() order regardless of completion order.
 *
 * Determinism contract: each point's simulation depends only on its
 * MachineConfig (fresh build and reset reuse are observationally
 * identical — tests/test_machine_reset.cc), so the merged results are
 * bit-identical for every thread count, worker assignment and
 * completion order. tests/test_parallel_sweep.cc locks this down,
 * including a forced straggler inversion.
 *
 * Results stream into the merge table as points complete (the merge
 * is by index, so streaming cannot reorder it): onOutcomeComplete()
 * registers an observer called from the completing worker in
 * completion order, while run()'s return stays in add() order. A
 * worker whose queue (and every victim's) has drained parks on a
 * condition variable until the grid finishes instead of exiting
 * through a scan race — with thousands-of-point grids this keeps idle
 * workers asleep, not rescanning.
 *
 * Thread count: WISYNC_SWEEP_THREADS, default = hardware concurrency;
 * 1 reproduces the serial path exactly (one SweepHarness on the
 * calling thread, no workers spawned).
 */

#ifndef WISYNC_HARNESS_PARALLEL_SWEEP_HH
#define WISYNC_HARNESS_PARALLEL_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/machine_config.hh"
#include "workloads/kernel_result.hh"

namespace wisync::core {
class Machine;
}

namespace wisync::harness {

/**
 * One grid point: the machine to prepare (built fresh or served by
 * reset from the worker's cache) and the workload to run on it.
 */
struct SweepPoint
{
    core::MachineConfig config;
    std::function<workloads::KernelResult(core::Machine &)> body;
};

/**
 * One point's outcome under the error-capturing run mode
 * (runCaptured): either a result (ok == true) or the typed per-point
 * failure that produced it (ok == false, result zero-initialized,
 * error holding the exception's what()). A long-lived sweep service
 * must answer "this one point failed" per point, not abandon a
 * thousand-point batch because one config livelocked.
 */
struct PointOutcome
{
    workloads::KernelResult result;
    bool ok = false;
    /** Empty when ok; the body exception's what() otherwise. */
    std::string error;
};

/** A declarative sweep grid plus the work-stealing driver over it. */
class ParallelSweep
{
  public:
    ParallelSweep() = default;

    /**
     * Append a point; @return its index — also its position in the
     * vector run() returns. @p body runs on a worker thread; anything
     * it captures must stay valid until run() returns and must not be
     * mutated by other points' bodies.
     */
    std::size_t add(core::MachineConfig config,
                    std::function<workloads::KernelResult(core::Machine &)>
                        body);

    std::size_t size() const { return points_.size(); }

    /**
     * Observe each point's PointOutcome the moment it completes
     * (before run() returns the merged vector), including captured
     * per-point failures under runCaptured(). Called in completion
     * order — indices arrive out of order on multi-worker runs — from
     * the completing worker's thread, serialized by an internal
     * mutex. The callback must not touch the sweep itself.
     */
    void
    onOutcomeComplete(
        std::function<void(std::size_t index, const PointOutcome &outcome)>
            fn)
    {
        onOutcome_ = std::move(fn);
    }

    /**
     * Run every point on @p threads workers (clamped to the grid
     * size) and return the results in add() order. The grid is left
     * intact, so the same sweep can be re-run — tests use that for
     * cross-thread-count comparisons.
     *
     * A throwing point body is batch-fatal: the first exception stops
     * every worker before its next point and is rethrown here — the
     * right behavior for benches, where a failing point means the
     * whole figure is wrong. Service front-ends use runCaptured().
     */
    std::vector<workloads::KernelResult> run(unsigned threads);

    /** run(threads()) — the environment-selected width. */
    std::vector<workloads::KernelResult> run();

    /**
     * As run(), but a throwing point body is captured as a typed
     * per-point error in the merged outcomes instead of stopping the
     * batch: the worker records what(), marks the point failed and
     * moves on to its next job. Successful points are bit-identical
     * to what run() would have produced — capture changes error
     * routing only, never simulation. Observer (onOutcomeComplete)
     * exceptions remain batch-fatal in both modes: the observer is
     * harness code, not a sweep point.
     */
    std::vector<PointOutcome> runCaptured(unsigned threads);

    /** WISYNC_SWEEP_THREADS, default hardware concurrency (min 1). */
    static unsigned threads();

  private:
    /** Shared driver behind run()/runCaptured(); see their docs. */
    std::vector<PointOutcome> execute(unsigned threads, bool capture);

    std::vector<SweepPoint> points_;
    std::function<void(std::size_t, const PointOutcome &)> onOutcome_;
};

} // namespace wisync::harness

#endif // WISYNC_HARNESS_PARALLEL_SWEEP_HH
