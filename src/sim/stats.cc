#include "sim/stats.hh"

#include <algorithm>
#include <bit>

namespace wisync::sim {

void
Accumulator::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

void
Histogram::sample(std::uint64_t v)
{
    acc_.sample(static_cast<double>(v));
    const unsigned b = v == 0 ? 0 : 63 - std::countl_zero(v);
    ++buckets_[b];
}

std::uint64_t
Histogram::bucket(unsigned b) const
{
    return b < 64 ? buckets_[b] : 0;
}

} // namespace wisync::sim
