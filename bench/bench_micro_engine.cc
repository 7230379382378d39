/**
 * @file
 * Google-benchmark microbenchmarks of the simulation substrate: event
 * queue throughput, coroutine task chains, wireless arbitration, mesh
 * transfers and coherent accesses. These bound how long the figure
 * benches take, and catch performance regressions in the kernel.
 */

#include <benchmark/benchmark.h>

#include <new>

#include "coro/frame_pool.hh"
#include "coro/primitives.hh"
#include "core/machine.hh"
#include "mem/mem_system.hh"
#include "noc/mesh.hh"
#include "sim/engine.hh"
#include "sim/heap_counter.hh"
#include "wireless/data_channel.hh"
#include "wireless/mac/brs_mac.hh"

// The fast-path benches assert "zero heap allocations on the uncontended
// path" with a counter, not by eyeball: this binary links the counting
// operator new of sim/heap_counter.cc, and each bench samples the count
// strictly around engine.run() so harness bookkeeping stays outside the
// measured window.

using namespace wisync;

namespace {

// Benchmarks that exercise the engine directly attach the scheduler's
// per-tier insertion counters (from one iteration's engine) next to
// throughput: tier_ready = same-cycle ring, tier_calendar = timing
// wheel levels, tier_heap = overflow heap, tier_cascades = wheel level
// migrations.
void
attachTierCounters(benchmark::State &state,
                   const sim::Engine::TierStats &tiers)
{
    state.counters["tier_ready"] = static_cast<double>(tiers.ready);
    state.counters["tier_calendar"] = static_cast<double>(tiers.calendar);
    state.counters["tier_heap"] = static_cast<double>(tiers.heap);
    state.counters["tier_cascades"] = static_cast<double>(tiers.cascades);
}

void
BM_EngineScheduleRun(benchmark::State &state)
{
    sim::Engine::TierStats tiers;
    for (auto _ : state) {
        sim::Engine eng;
        for (int i = 0; i < 10000; ++i)
            eng.schedule(static_cast<sim::Cycle>(i), [] {});
        eng.run();
        benchmark::DoNotOptimize(eng.now());
        tiers = eng.tierStats();
    }
    state.SetItemsProcessed(state.iterations() * 10000);
    attachTierCounters(state, tiers);
}
BENCHMARK(BM_EngineScheduleRun);

void
BM_EngineScheduleRunNearFuture(benchmark::State &state)
{
    // Deltas under the level-0 block: the dominant pattern in the
    // actual models (wireless slots, mesh hops, cache latencies).
    sim::Engine::TierStats tiers;
    for (auto _ : state) {
        sim::Engine eng;
        static int left;
        left = 10000;
        struct Step
        {
            sim::Engine *eng;
            void
            operator()() const
            {
                if (--left > 0)
                    eng->scheduleIn(1 + (left & 63), Step{eng});
            }
        };
        eng.schedule(0, Step{&eng});
        eng.run();
        benchmark::DoNotOptimize(eng.now());
        tiers = eng.tierStats();
    }
    state.SetItemsProcessed(state.iterations() * 10000);
    attachTierCounters(state, tiers);
}
BENCHMARK(BM_EngineScheduleRunNearFuture);

coro::Task<void>
yieldLoop(sim::Engine &eng, int count)
{
    for (int i = 0; i < count; ++i)
        co_await coro::yield(eng);
}

void
BM_CoroutineResumeZeroDelay(benchmark::State &state)
{
    // The dominant kernel pattern: a suspended coroutine rescheduled at
    // the current cycle (mutex handoff, CondVar wakeup, arbitration).
    sim::Engine::TierStats tiers;
    for (auto _ : state) {
        sim::Engine eng;
        coro::spawnDetached(eng, yieldLoop(eng, 10000));
        eng.run();
        benchmark::DoNotOptimize(eng.now());
        tiers = eng.tierStats();
    }
    state.SetItemsProcessed(state.iterations() * 10000);
    attachTierCounters(state, tiers);
}
BENCHMARK(BM_CoroutineResumeZeroDelay);

coro::Task<void>
chain(sim::Engine &eng, int depth)
{
    if (depth == 0)
        co_return;
    co_await coro::delay(eng, 1);
    co_await chain(eng, depth - 1);
}

void
BM_CoroutineChain(benchmark::State &state)
{
    const auto before = coro::framePool().stats();
    for (auto _ : state) {
        sim::Engine eng;
        coro::spawnDetached(eng, chain(eng, 1000));
        eng.run();
        benchmark::DoNotOptimize(eng.now());
    }
    const auto after = coro::framePool().stats();
    state.SetItemsProcessed(state.iterations() * 1000);
    // Fraction of frame allocations served from the pool's free lists
    // (steady state should be ~1; a drop means the pool regressed).
    const double allocs =
        static_cast<double>(after.pooledAllocs - before.pooledAllocs);
    state.counters["pool_reuse_fraction"] =
        allocs == 0.0
            ? 0.0
            : static_cast<double>(after.freelistReuses -
                                  before.freelistReuses) /
                  allocs;
    state.counters["pool_fallback_allocs"] = static_cast<double>(
        after.fallbackAllocs - before.fallbackAllocs);
}
BENCHMARK(BM_CoroutineChain);

coro::Task<void>
sendMany(wireless::Mac &mac, int count)
{
    for (int i = 0; i < count; ++i)
        co_await mac.send(false, [] {});
}

void
BM_WirelessUncontended(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Engine eng;
        wireless::DataChannel ch(eng, wireless::WirelessConfig{});
        wireless::BrsMac brs(eng, ch, 1);
        wireless::Mac mac(eng, ch, brs, 0, sim::Rng(1));
        coro::spawnDetached(eng, sendMany(mac, 1000));
        eng.run();
        benchmark::DoNotOptimize(ch.stats().messages.value());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_WirelessUncontended);

coro::Task<void>
meshMany(noc::Mesh &mesh, int count)
{
    for (int i = 0; i < count; ++i)
        co_await mesh.send(0, 63, 576);
}

void
BM_MeshCornerToCorner(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Engine eng;
        noc::MeshConfig cfg;
        cfg.numNodes = 64;
        noc::Mesh mesh(eng, cfg);
        coro::spawnDetached(eng, meshMany(mesh, 500));
        eng.run();
        benchmark::DoNotOptimize(mesh.stats().messages.value());
    }
    state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_MeshCornerToCorner);

/**
 * A/B pair for the uncontended mesh fast path: the same 14-hop
 * corner-to-corner stream on one persistent (reset-reused) engine+mesh,
 * once through the frameless reservation chain and once through the
 * wormhole coroutine (cfg.fastpath = false — exactly the
 * WISYNC_NO_FASTPATH path). Same process, same machine: the ratio is
 * the gated speedup, heap allocations inside run() are counted (the
 * fast leg must be exactly zero in steady state), and the hit fraction
 * proves the stream really took the fast route.
 */
template <bool kFastpath>
void
meshUncontendedBody(benchmark::State &state)
{
    // Leaked on purpose: a static Engine would be destroyed after the
    // thread-local scheduler chunk cache it returns its pool chunks
    // to. Persistent bench fixtures therefore never run destructors.
    static sim::Engine &eng = *new sim::Engine;
    noc::MeshConfig cfg;
    cfg.numNodes = 64;
    cfg.fastpath = kFastpath;
    static noc::Mesh &mesh = *new noc::Mesh(eng, cfg);

    auto point = [&] {
        eng.reset();
        mesh.reset(cfg);
        coro::spawnDetached(eng, meshMany(mesh, 500));
    };
    point();
    eng.run(); // warm-up: pools, buckets, ring capacity

    std::uint64_t allocs = 0;
    std::uint64_t hits = 0;
    std::uint64_t fallbacks = 0;
    for (auto _ : state) {
        point();
        const std::uint64_t before = sim::heapAllocs();
        eng.run();
        allocs += sim::heapAllocs() - before;
        hits = mesh.stats().fastpathHits.value();
        fallbacks = mesh.stats().fastpathFallbacks.value();
        benchmark::DoNotOptimize(eng.now());
    }
    state.SetItemsProcessed(state.iterations() * 500);
    state.counters["heap_allocs"] = static_cast<double>(allocs);
    const double attempts = static_cast<double>(hits + fallbacks);
    state.counters["fastpath_hit_fraction"] =
        attempts > 0 ? static_cast<double>(hits) / attempts : 0.0;
}

void
BM_MeshUncontendedFastPath(benchmark::State &state)
{
    meshUncontendedBody<true>(state);
}
BENCHMARK(BM_MeshUncontendedFastPath);

void
BM_MeshUncontendedFallback(benchmark::State &state)
{
    meshUncontendedBody<false>(state);
}
BENCHMARK(BM_MeshUncontendedFallback);

template <bool kFastpath>
void
coherentPingPongBody(benchmark::State &state)
{
    // Two cores alternately writing one line: the worst-case coherence
    // pattern driving the Baseline synchronization results, on one
    // persistent reset-reused machine so the per-message simulation
    // cost is what gets timed. The NoFastpath twin is the same-process
    // denominator for the fast-path ratio (misses dominate, so the win
    // here comes from the frameless mesh chain under the coherence
    // legs). Leaked fixture: see meshUncontendedBody.
    auto cfg = core::MachineConfig::make(core::ConfigKind::Baseline, 16);
    cfg.setFastpath(kFastpath);
    static core::Machine &m = *new core::Machine(cfg);
    auto point = [&] {
        m.reset();
        const sim::Addr addr = m.allocMem(64, 64);
        for (int t = 0; t < 2; ++t) {
            m.spawnThread(static_cast<sim::NodeId>(t),
                          [addr](core::ThreadCtx &ctx) -> coro::Task<void> {
                              for (int i = 0; i < 200; ++i)
                                  co_await ctx.fetchAdd(addr, 1);
                          });
        }
    };
    point();
    m.run(); // warm-up
    for (auto _ : state) {
        point();
        m.run();
        benchmark::DoNotOptimize(m.engine().now());
    }
    state.SetItemsProcessed(state.iterations() * 400);
}

void
BM_CoherentPingPong(benchmark::State &state)
{
    coherentPingPongBody<true>(state);
}
BENCHMARK(BM_CoherentPingPong);

void
BM_CoherentPingPongNoFastpath(benchmark::State &state)
{
    coherentPingPongBody<false>(state);
}
BENCHMARK(BM_CoherentPingPongNoFastpath);

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

void
BM_MachineBuildFresh(benchmark::State &state)
{
    // A/B pair with BM_MachineResetReuse: one sweep point per
    // iteration on a freshly constructed machine. The ratio between
    // the two is the regression gate for Machine::reset (same-runner,
    // same-process, so absolute noise cancels). 64 cores = the
    // figure benches' dominant shape.
    const auto cfg =
        core::MachineConfig::make(core::ConfigKind::WiSync, 64);
    for (auto _ : state) {
        core::Machine m(cfg);
        runSweepPoint(m);
        benchmark::DoNotOptimize(m.engine().now());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineBuildFresh);

void
BM_MachineResetReuse(benchmark::State &state)
{
    const auto cfg =
        core::MachineConfig::make(core::ConfigKind::WiSync, 64);
    core::Machine m(cfg);
    for (auto _ : state) {
        m.reset();
        runSweepPoint(m);
        benchmark::DoNotOptimize(m.engine().now());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineResetReuse);

void
BM_FramePoolChurn(benchmark::State &state)
{
    // A/B pair with BM_HeapChurn: the frame pool's alloc/free cycle on
    // a realistic size mix versus the system allocator's.
    static constexpr std::size_t kSizes[] = {96, 160, 224, 320, 480};
    coro::FramePool pool;
    void *live[64] = {};
    std::size_t n = 0;
    for (auto _ : state) {
        if (n == 64) {
            while (n > 0)
                pool.deallocate(live[--n]);
        }
        live[n] = pool.allocate(kSizes[n % std::size(kSizes)]);
        benchmark::DoNotOptimize(live[n]);
        ++n;
    }
    while (n > 0)
        pool.deallocate(live[--n]);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FramePoolChurn);

void
BM_HeapChurn(benchmark::State &state)
{
    static constexpr std::size_t kSizes[] = {96, 160, 224, 320, 480};
    void *live[64] = {};
    std::size_t n = 0;
    for (auto _ : state) {
        if (n == 64) {
            while (n > 0)
                ::operator delete(live[--n]);
        }
        live[n] = ::operator new(kSizes[n % std::size(kSizes)]);
        benchmark::DoNotOptimize(live[n]);
        ++n;
    }
    while (n > 0)
        ::operator delete(live[--n]);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapChurn);

template <bool kFastpath>
void
bmBroadcastStoreBody(benchmark::State &state)
{
    // The per-broadcast cost in isolation: one persistent reset-reused
    // machine, 500 uncontended single-sender broadcasts per iteration.
    // With the fast path on, every send must take the frameless Mac
    // route and run() must never touch the allocator (counted, and
    // gated by check_bench.py). Leaked fixture: see meshUncontendedBody.
    auto cfg = core::MachineConfig::make(core::ConfigKind::WiSync, 64);
    cfg.setFastpath(kFastpath);
    static core::Machine &m = *new core::Machine(cfg);
    auto point = [&] {
        m.reset();
        m.bm()->storeArray().setTag(0, 1);
        m.spawnThread(0, [](core::ThreadCtx &ctx) -> coro::Task<void> {
            for (int i = 0; i < 500; ++i)
                co_await ctx.bmStore(0, static_cast<std::uint64_t>(i));
        });
    };
    point();
    m.run(); // warm-up
    std::uint64_t allocs = 0;
    std::uint64_t hits = 0;
    std::uint64_t fallbacks = 0;
    for (auto _ : state) {
        point();
        const std::uint64_t before = sim::heapAllocs();
        m.run();
        allocs += sim::heapAllocs() - before;
        hits = m.bm()->dataChannel().stats().fastpathHits.value();
        fallbacks =
            m.bm()->dataChannel().stats().fastpathFallbacks.value();
        benchmark::DoNotOptimize(m.engine().now());
    }
    state.SetItemsProcessed(state.iterations() * 500);
    state.counters["heap_allocs"] = static_cast<double>(allocs);
    const double attempts = static_cast<double>(hits + fallbacks);
    state.counters["fastpath_hit_fraction"] =
        attempts > 0 ? static_cast<double>(hits) / attempts : 0.0;
}

void
BM_BmBroadcastStore(benchmark::State &state)
{
    bmBroadcastStoreBody<true>(state);
}
BENCHMARK(BM_BmBroadcastStore);

void
BM_BmBroadcastStoreNoFastpath(benchmark::State &state)
{
    bmBroadcastStoreBody<false>(state);
}
BENCHMARK(BM_BmBroadcastStoreNoFastpath);

} // namespace

BENCHMARK_MAIN();
