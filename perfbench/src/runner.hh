/**
 * @file
 * What the workloads share: the run arguments, the report, grid
 * parsing through the service codec, and one instrumented
 * ParallelSweep pass that times every point and reads its layer
 * counts.
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "gen.hh"
#include "layers.hh"
#include "metrics.hh"
#include "service/config_codec.hh"
#include "service/sweep_service.hh"
#include "trace.hh"
#include "workloads/apps.hh"
#include "workloads/kernel_result.hh"

namespace perfbench {

struct Args
{
    Workload workload = Workload::PaperApps;
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    /** Scratch directory inside the checkout (trace, cache files). */
    std::string outDir;
    /** The wisync_sweepd binary (daemon-mixed). */
    std::string sweepd;
    /** Host threads for sweeps and the daemon (at most nproc). */
    unsigned threads = 1;
};

/** The driver's findings; printed by main. */
struct Report
{
    std::vector<Measured> endToEnd;
    /** Per-layer values by catalogue name (traced runs). */
    std::map<std::string, double> perLayer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Digest of every point's simulated results, in grid order. */
    std::string resultDigest;
    /** Digest of every point's deterministic layer counts. */
    std::string countDigest;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;
};

/** One grid point: a config plus either an app or a service kernel. */
struct GridPoint
{
    wisync::core::MachineConfig config;
    const wisync::workloads::AppProfile *app = nullptr;
    wisync::service::WorkloadSpec spec;
    /** Canonical text of the point (config + workload). */
    std::string label;
};

/** Parse a generated sweep document through ConfigCodec. */
std::vector<GridPoint> parseGrid(const std::string &text);

/** The service request point of a kernel grid point. */
wisync::service::RequestPoint requestPoint(const GridPoint &p);

/** Everything one instrumented pass observed, in grid order. */
struct PassResult
{
    std::vector<wisync::workloads::KernelResult> results;
    std::vector<bool> ok;
    std::vector<LayerCounts> counts;
    HostCounts host;
    /** Host ms of each point's workload call. */
    std::vector<double> pointMs;
    double wallMs = 0.0;
    /** Points served by a machine their worker already ran this pass
     *  (Machine::reset rather than a build). */
    std::size_t reuses = 0;
    unsigned threads = 1;
};

/**
 * Run @p grid once through ParallelSweep::runCaptured on @p threads
 * workers. With @p tracer enabled, spans for the sweep, each point's
 * harness time (machine acquire + run) and its workload call are
 * recorded, under @p parent.
 */
PassResult runPass(const std::vector<GridPoint> &grid, unsigned threads,
                   Tracer &tracer, std::uint64_t parent = Tracer::kNoParent);

/** Sum of one pass's counts. */
LayerCounts totalCounts(const PassResult &pass);

/** Digests of a pass's results and counts (grid order). */
std::string resultDigest(const std::vector<GridPoint> &grid,
                         const PassResult &pass,
                         std::vector<double> *serialize_us = nullptr);
std::string countDigest(const PassResult &pass);

/** Points of @p pass that differ from @p ref in results or counts. */
std::size_t countDrift(const PassResult &ref, const PassResult &pass);

/**
 * Build one Machine per structural shape among @p configs (timing each
 * build into @p build_ms), as a sweep worker would on first touch.
 */
std::vector<std::unique_ptr<wisync::core::Machine>>
buildShapes(const std::vector<wisync::core::MachineConfig> &configs,
            Tracer &tracer, std::vector<double> &build_ms);

/** Time Machine::reset(cfg) on its shape's machine for every config. */
void probeResets(
    const std::vector<std::unique_ptr<wisync::core::Machine>> &machines,
    const std::vector<wisync::core::MachineConfig> &configs,
    Tracer &tracer, std::vector<double> &reset_ms);

/**
 * Fill the per-layer values that come from counts and pass timing —
 * sim, coro, noc, mem, bm, wireless, harness and workloads — from
 * @p passes of one grid (counts from the first; they repeat exactly).
 */
void addPassLayers(Report &report, const std::vector<PassResult> &passes);

/**
 * SweepService::runBatch under a "service.batch" span; traced, each
 * simulated point adds a "workloads.run" child span (body probe to
 * completion) so the batch's self time excludes simulation.
 */
std::vector<wisync::service::ServiceOutcome>
runBatchTraced(wisync::service::SweepService &svc,
               const wisync::service::SweepRequest &request,
               unsigned threads, Tracer &tracer, double &batch_ms,
               std::uint64_t parent = Tracer::kNoParent);

/** "n=…" sample note. */
std::string samplesNote(std::size_t n, const char *what);

/** Peak resident set of this process, MB. */
double selfPeakRssMb();

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HH
