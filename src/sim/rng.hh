/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The simulator must be reproducible run-to-run: every stochastic
 * component (MAC backoff, workload interarrival jitter, cache-victim
 * tie-breaks) draws from its own Rng stream derived from the machine
 * seed, so adding a component never perturbs the draws of another.
 *
 * Implementation: xoshiro256** (Blackman & Vigna), seeded through
 * splitmix64. Both are public-domain algorithms.
 */

#ifndef WISYNC_SIM_RNG_HH
#define WISYNC_SIM_RNG_HH

#include <cstdint>

namespace wisync::sim {

/**
 * splitmix64 finaliser: a cheap, high-quality 64-bit mixer. Shared by
 * the RNG seeding, the order-independent state fingerprints
 * (mem::Memory, bm::BmStore), the PooledMap hash and the Livermore
 * input values.
 */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** xoshiro256** generator with convenience distributions. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Reinitialise to the exact state of a fresh Rng(seed). */
    void reseed(std::uint64_t seed);

    /** Derive an independent child stream (for per-component RNGs). */
    Rng fork();

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound), bound > 0. Unbiased rejection. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli draw with probability p of true. */
    bool chance(double p) { return uniform() < p; }

  private:
    std::uint64_t s_[4];
};

} // namespace wisync::sim

#endif // WISYNC_SIM_RNG_HH
