/**
 * @file
 * Printing a run: human-readable notes, the digests, one line per
 * metric (name, value, unit, samples), then the one-line JSON result.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include "runner.hh"

namespace perfbench {

/**
 * Print @p report — the end-to-end metrics, or with args.trace the
 * per-layer ones — ending with the JSON result line.
 * @return the process exit code: 0 iff nothing failed.
 */
int printReport(const Report &report, const Args &args);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
