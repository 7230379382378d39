/**
 * @file
 * Timing gates of the simulation substrate: two same-process A/B
 * pairs, each timed interleaved and compared best-of-N against a
 * fixed bound. A pair's ratio is leg A's throughput over leg B's on
 * equal work:
 *
 *   reset/build    Machine::reset + one sweep point vs a fresh build
 *   frame pool     pooled frame alloc/free vs the system allocator
 *
 * The exit status is the gate (ctest runs this binary). The exact
 * counters the simulation paths promise (fast-path hit fractions,
 * zero allocations, scheduler tiers, frame-pool reuse) are
 * deterministic, so unit tests assert them.
 */

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <new>

#include "coro/frame_pool.hh"
#include "core/machine.hh"
#include "sim/engine.hh"
#include "timing_gate.hh"

using namespace wisync;

namespace {

/** Timed rounds per pair (best-of). */
constexpr int kRounds = 7;

coro::Task<void>
touchPoint(core::ThreadCtx &ctx)
{
    // A minimal but representative sweep-point body: a coherent RMW
    // and a BM broadcast, so reset correctness (caches, directory, BM,
    // channel) is exercised, not just construction.
    co_await ctx.fetchAdd(0x1000'0000, 1);
    co_await ctx.bmStore(0, 1);
}

void
runSweepPoint(core::Machine &m)
{
    m.bm()->storeArray().setTag(0, 1);
    m.spawnThread(0, [](core::ThreadCtx &ctx) { return touchPoint(ctx); });
    m.run();
}

/** Sweep points per build/reset batch (64 cores: the figures' shape). */
constexpr int kSweepPoints = 30;

/**
 * The frame pool's alloc/free cycle on a realistic frame-size mix:
 * fill 64 live frames, free them all, repeat.
 */
template <class Alloc, class Free>
void
churn(Alloc &&alloc, Free &&release)
{
    static constexpr std::size_t kSizes[] = {96, 160, 224, 320, 480};
    void *live[64] = {};
    for (int round = 0; round < 20'000; ++round) {
        for (std::size_t n = 0; n < std::size(live); ++n) {
            live[n] = alloc(kSizes[n % std::size(kSizes)]);
            bench::doNotOptimize(live[n]);
        }
        for (std::size_t n = std::size(live); n > 0; --n)
            release(live[n - 1]);
    }
}

} // namespace

int
main()
{
    if (!bench::kTimingGatesApply) {
        std::puts("timing gates skipped: sanitizer or assert-enabled "
                  "build");
        return bench::kSkipTimingGates;
    }

    bool ok = true;
    {
        const auto cfg =
            core::MachineConfig::make(core::ConfigKind::WiSync, 64);
        core::Machine reused(cfg);
        ok &= bench::gateAtLeast(
            "reset/build",
            bench::interleavedRatio(
                [&] {
                    for (int i = 0; i < kSweepPoints; ++i) {
                        reused.reset();
                        runSweepPoint(reused);
                    }
                },
                [&] {
                    for (int i = 0; i < kSweepPoints; ++i) {
                        core::Machine fresh(cfg);
                        runSweepPoint(fresh);
                    }
                },
                kRounds),
            1.15);
    }
    {
        coro::FramePool pool;
        ok &= bench::gateAtLeast(
            "frame pool/malloc",
            bench::interleavedRatio(
                [&] {
                    churn([&](std::size_t n) { return pool.allocate(n); },
                          [&](void *p) { pool.deallocate(p); });
                },
                [] {
                    churn([](std::size_t n) { return ::operator new(n); },
                          [](void *p) { ::operator delete(p); });
                },
                kRounds),
            0.7);
    }
    return ok ? 0 : 1;
}
