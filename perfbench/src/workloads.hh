/**
 * @file
 * The three workloads and the pieces of their reports they share.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <vector>

#include "runner.hh"

namespace perfbench {

/** paper-apps and wireless-sync: ParallelSweep passes over a grid. */
Report runSweepWorkload(const Args &args);

/** daemon-mixed: a closed-loop client driving wisync_sweepd --serve. */
Report runDaemonWorkload(const Args &args);

/** percentile(), but a refused tail is a benchmark defect: throw. */
double percentileOrThrow(const std::vector<double> &v, double pct);

/**
 * Close a traced run: add each span-timed layer's self time (divided
 * by @p traced_units, the number of traced repetitions) and the
 * tracing overhead — traced vs untraced median pass — to the report,
 * and write the Chrome trace file into the run's scratch directory.
 */
void finishTrace(Report &report, const Tracer &tracer, const Args &args,
                 double traced_pass_s, double untraced_pass_s,
                 std::size_t traced_units);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
