/**
 * @file
 * Lightweight statistics: counters, sample accumulators and latency
 * histograms, held as plain members of the component they describe.
 */

#ifndef WISYNC_SIM_STATS_HH
#define WISYNC_SIM_STATS_HH

#include <cstdint>

#include "sim/types.hh"

namespace wisync::sim {

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Scalar sample accumulator (count / sum / min / max / mean).
 *
 * Used for latencies and occupancies where a full distribution is not
 * needed; Histogram adds log2 buckets on top.
 */
class Accumulator
{
  public:
    void sample(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Accumulator plus power-of-two bucket histogram. */
class Histogram
{
  public:
    void sample(std::uint64_t v);

    const Accumulator &acc() const { return acc_; }
    /** Count of samples with floor(log2(v)) == bucket (v=0 -> bucket 0). */
    std::uint64_t bucket(unsigned b) const;
    unsigned numBuckets() const { return 64; }

  private:
    Accumulator acc_;
    std::uint64_t buckets_[64] = {};
};

} // namespace wisync::sim

#endif // WISYNC_SIM_STATS_HH
