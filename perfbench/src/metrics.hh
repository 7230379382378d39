/**
 * @file
 * The benchmark's metric catalogue and the statistics behind it.
 *
 * Every workload reports the same end-to-end metrics (tracing off)
 * and, in a traced run, the same per-layer metrics, so a workload that
 * does not exercise a layer reports that layer's counts as 0. The
 * catalogue here is the single list the driver prints from and the
 * self-tests compare against BENCHMARK.json.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** One catalogue entry: name, unit and which direction is better. */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better; // "lower" or "higher"
};

/** Host-time metrics a user sees, measured with tracing off. */
const std::vector<MetricDef> &endToEndMetrics();

/** Counts and host times of single layers, from the traced run. */
const std::vector<MetricDef> &perLayerMetrics();

/** True iff @p name is 1-64 of [A-Za-z0-9_.-], starting alphanumeric. */
bool validMetricName(const std::string &name);

/** One measured value, with the sample count behind it. */
struct Measured
{
    std::string name;
    double value = 0.0;
    std::string samples; // e.g. "n=1000 points"; empty for counts
};

/** Median of @p v (mean of the middle pair for even sizes); v nonempty. */
double median(std::vector<double> v);

/**
 * Nearest-rank @p pct percentile of @p v, or nullopt when fewer than
 * ten samples lie above it — a tail read from fewer samples is noise,
 * so the benchmark refuses to report it.
 */
std::optional<double> percentile(std::vector<double> v, double pct);

/** Samples strictly above the nearest-rank @p pct percentile's rank. */
std::size_t samplesBeyond(std::size_t n, double pct);

/** FNV-1a 64 accumulator for result and count digests. */
class Digest
{
  public:
    void add(const std::string &bytes);
    void add(std::uint64_t word);
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
