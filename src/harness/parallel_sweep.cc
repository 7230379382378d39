#include "harness/parallel_sweep.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "harness/sweep.hh"
#include "sim/logging.hh"

namespace wisync::harness {

namespace {

/**
 * One worker's job queue. A plain mutex per queue is plenty: jobs are
 * whole simulations (milliseconds to seconds), so queue operations are
 * nowhere near contended enough to justify a lock-free deque.
 */
struct WorkerQueue
{
    std::mutex mutex;
    std::deque<std::size_t> jobs;

    /** Owner takes from the front (preserves block order = reuse locality). */
    std::optional<std::size_t>
    popOwn()
    {
        std::lock_guard<std::mutex> g(mutex);
        if (jobs.empty())
            return std::nullopt;
        const std::size_t i = jobs.front();
        jobs.pop_front();
        return i;
    }

    /** Thieves take from the back (the owner's coldest work). */
    std::optional<std::size_t>
    steal()
    {
        std::lock_guard<std::mutex> g(mutex);
        if (jobs.empty())
            return std::nullopt;
        const std::size_t i = jobs.back();
        jobs.pop_back();
        return i;
    }
};

} // namespace

std::size_t
ParallelSweep::add(core::MachineConfig config,
                   std::function<workloads::KernelResult(core::Machine &)>
                       body)
{
    points_.push_back(SweepPoint{std::move(config), std::move(body)});
    return points_.size() - 1;
}

unsigned
ParallelSweep::threads()
{
    static const unsigned n = [] {
        if (const char *v = std::getenv("WISYNC_SWEEP_THREADS");
            v != nullptr && *v != '\0') {
            const long parsed = std::strtol(v, nullptr, 10);
            if (parsed > 0)
                return static_cast<unsigned>(parsed);
        }
        return std::max(1u, std::thread::hardware_concurrency());
    }();
    return n;
}

std::vector<workloads::KernelResult>
ParallelSweep::run()
{
    return run(threads());
}

std::vector<workloads::KernelResult>
ParallelSweep::run(unsigned threads)
{
    std::vector<PointOutcome> outcomes = execute(threads, false);
    std::vector<workloads::KernelResult> results(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        results[i] = outcomes[i].result;
    return results;
}

std::vector<PointOutcome>
ParallelSweep::runCaptured(unsigned threads)
{
    return execute(threads, true);
}

std::vector<PointOutcome>
ParallelSweep::execute(unsigned threads, bool capture)
{
    std::vector<PointOutcome> results(points_.size());
    if (points_.empty())
        return results;

    const unsigned nworkers = static_cast<unsigned>(std::min<std::size_t>(
        std::max(1u, threads), points_.size()));

    // Completion-order streaming: results land in the merge table the
    // moment a point finishes and the observer sees them then, while
    // the returned vector stays in add() order.
    std::mutex emit_mutex;
    auto emit = [&](std::size_t index) {
        if (!onOutcome_)
            return;
        std::lock_guard<std::mutex> g(emit_mutex);
        onOutcome_(index, results[index]);
    };

    // Runs one point's body, routing exceptions per mode: capture
    // records the typed per-point failure and lets the sweep continue;
    // the default rethrows, making the failure batch-fatal.
    auto runPoint = [&](SweepHarness &machines, std::size_t i) {
        try {
            results[i].result =
                points_[i].body(machines.acquire(points_[i].config));
            results[i].ok = true;
        } catch (const std::exception &e) {
            if (!capture)
                throw;
            results[i].error = e.what();
        } catch (...) {
            if (!capture)
                throw;
            results[i].error = "unknown exception";
        }
    };

    if (nworkers == 1) {
        // The serial path: one harness on the calling thread, grid
        // order — exactly the pre-parallel benches.
        SweepHarness machines;
        for (std::size_t i = 0; i < points_.size(); ++i) {
            runPoint(machines, i);
            emit(i);
        }
        return results;
    }

    // Block-distribute the grid: contiguous ranges keep neighbouring
    // points (usually the same structural shape) on one worker, so the
    // per-worker machine caches hit about as often as the serial run's.
    std::vector<WorkerQueue> queues(nworkers);
    for (std::size_t i = 0; i < points_.size(); ++i) {
        const std::size_t w = i * nworkers / points_.size();
        queues[w].jobs.push_back(i);
    }

    // No point ever enqueues more work, so once a worker's own queue
    // and every victim's read empty, all remaining points are already
    // owned by running workers. Instead of exiting through that scan
    // (a rescan race on big grids), the idle worker parks on a
    // condition variable until the whole grid drains or a worker
    // fails — it sleeps, it does not poll.
    std::exception_ptr first_error;
    std::mutex idle_mutex;
    std::condition_variable idle_cv;
    std::size_t remaining = points_.size();
    std::atomic<bool> failed{false};
    auto worker = [&](unsigned self) {
        // Worker-private machine cache: machines are built, reset, run
        // and destroyed on this thread only (the frame pool is
        // thread-local and each engine owns all of its scheduler state).
        SweepHarness machines;
        while (!failed.load(std::memory_order_relaxed)) {
            std::optional<std::size_t> job = queues[self].popOwn();
            for (unsigned v = 1; !job && v < nworkers; ++v)
                job = queues[(self + v) % nworkers].steal();
            if (!job) {
                std::unique_lock<std::mutex> l(idle_mutex);
                idle_cv.wait(l, [&] {
                    return remaining == 0 ||
                           failed.load(std::memory_order_relaxed);
                });
                return;
            }
            try {
                runPoint(machines, *job);
                // Inside the try: an observer that throws must stop
                // the sweep like a failing body, not terminate the
                // process from a worker thread (in capture mode the
                // body's exception never reaches here — only observer
                // failures stay batch-fatal).
                emit(*job);
            } catch (...) {
                // Record the first error and stop every worker before
                // its next point — a long grid should not simulate to
                // completion only to discard the results.
                {
                    std::lock_guard<std::mutex> g(idle_mutex);
                    if (!first_error)
                        first_error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                }
                idle_cv.notify_all();
                return;
            }
            {
                std::lock_guard<std::mutex> g(idle_mutex);
                if (--remaining == 0)
                    idle_cv.notify_all();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(nworkers - 1);
    for (unsigned w = 1; w < nworkers; ++w)
        pool.emplace_back(worker, w);
    worker(0);
    for (auto &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

} // namespace wisync::harness
