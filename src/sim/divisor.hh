/**
 * @file
 * Division by a number fixed at construction.
 */

#ifndef WISYNC_SIM_DIVISOR_HH
#define WISYNC_SIM_DIVISOR_HH

#include <bit>
#include <cstdint>

namespace wisync::sim {

/**
 * A divisor fixed at construction: shift and mask when it is a power
 * of two (every Table 1 geometry), division otherwise.
 */
class Divisor
{
  public:
    explicit Divisor(std::uint64_t n = 1)
        : n_(n), shift_(static_cast<std::uint32_t>(std::countr_zero(n))),
          pow2_(std::has_single_bit(n))
    {}

    std::uint64_t
    div(std::uint64_t x) const
    {
        return pow2_ ? x >> shift_ : x / n_;
    }

    std::uint64_t
    mod(std::uint64_t x) const
    {
        return pow2_ ? x & (n_ - 1) : x % n_;
    }

  private:
    std::uint64_t n_;
    std::uint32_t shift_;
    bool pow2_;
};

} // namespace wisync::sim

#endif // WISYNC_SIM_DIVISOR_HH
