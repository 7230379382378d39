/**
 * @file
 * Shared plumbing of the timing benches (bench_micro_engine,
 * bench_service, bench_sweep_parallel). Each one gates same-process
 * A/B ratios in its exit status, which ctest reads: 0 = every gate
 * holds, 1 = a gate failed, kSkipTimingGates = the ratios could not be
 * measured meaningfully in this build or on this host.
 */

#ifndef WISYNC_BENCH_TIMING_GATE_HH
#define WISYNC_BENCH_TIMING_GATE_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WISYNC_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WISYNC_BENCH_SANITIZED 1
#endif
#endif

namespace wisync::bench {

/** Exit status ctest reports as "skipped" (SKIP_RETURN_CODE). */
inline constexpr int kSkipTimingGates = 77;

/**
 * False in sanitizer or assert-enabled builds: instrumentation slows
 * the two legs of a pair by different factors, so their ratio says
 * nothing about the optimized code.
 */
#if defined(NDEBUG) && !defined(WISYNC_BENCH_SANITIZED)
inline constexpr bool kTimingGatesApply = true;
#else
inline constexpr bool kTimingGatesApply = false;
#endif

/** Keeps @p value (and the work producing it) from being optimized out. */
template <class T>
inline void
doNotOptimize(const T &value)
{
    asm volatile("" : : "m"(value) : "memory");
}

/** Wall-clock seconds one call of @p fn takes. */
template <class Fn>
double
secondsOf(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Interleaved A/B of two legs doing equal work per call: one untimed
 * warm-up call each, then @p rounds alternating timed calls, returning
 * best(B) / best(A), i.e. A's throughput over B's. Interleaving
 * exposes both legs to the same host noise; best-of drops the rounds
 * a neighbour disturbed.
 */
template <class A, class B>
double
interleavedRatio(A &&a, B &&b, int rounds)
{
    a();
    b();
    double best_a = std::numeric_limits<double>::infinity();
    double best_b = best_a;
    for (int r = 0; r < rounds; ++r) {
        best_a = std::min(best_a, secondsOf(a));
        best_b = std::min(best_b, secondsOf(b));
    }
    return best_b / best_a;
}

/** Prints one ">= bound" gate and returns whether it holds. */
inline bool
gateAtLeast(const char *what, double value, double bound)
{
    const bool ok = value >= bound;
    std::printf("%-34s %8.2f  (gate: >= %.2f)%s\n", what, value, bound,
                ok ? "" : "  FAIL");
    return ok;
}

} // namespace wisync::bench

#endif // WISYNC_BENCH_TIMING_GATE_HH
