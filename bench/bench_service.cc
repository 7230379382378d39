/**
 * @file
 * Sweep-service throughput: cold vs warm batches on a duplicate-heavy
 * grid.
 *
 * The service's value proposition is that determinism makes results
 * reusable: a batch full of repeated points (parameter sweeps from
 * many users overlap heavily) should cost one simulation per *unique*
 * point, and a repeated batch should cost no simulation at all. This
 * bench measures exactly that on a duplicate-heavy TightLoop/CAS
 * grid:
 *
 *  - service_identity: the cold service run (deduped, cached, N
 *    worker threads) and a 2-way ShardPlanner split of the same
 *    request merge bit-identically to a serial, cache-disabled run —
 *    the subsystem's correctness bar, verified in-process;
 *  - cache_hits vs duplicates: every injected duplicate must be
 *    answered by the result cache (hits >= duplicates);
 *  - warm_simulated == 0: a repeated batch simulates nothing;
 *  - warm_from_disk_identical: the warm cache spilled through
 *    CacheStore and reloaded into a fresh service must answer the
 *    whole batch without simulating, bit-identical to the reference;
 *  - salvaged_prefix_hits: the same file truncated mid-record must
 *    still salvage its valid prefix, and every salvaged record must
 *    answer its point warm (>= 1 unique point served from the
 *    damaged file);
 *  - warm_speedup: the batch against the warm cache must be at least
 *    2x faster than a cold run (interleaved best-of-3; in practice
 *    orders of magnitude). Checked only in optimized, uninstrumented
 *    builds; otherwise the bench exits with kSkipTimingGates once
 *    every other gate holds.
 *
 * The exit status is the gate; ctest runs this binary.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "harness/parallel_sweep.hh"
#include "service/cache_store.hh"
#include "service/config_codec.hh"
#include "service/fault.hh"
#include "service/shard_planner.hh"
#include "service/sweep_service.hh"
#include "timing_gate.hh"
#include "workloads/kernel_result.hh"

using namespace wisync;

namespace {

/**
 * 6 unique points (kind x MAC x workload), each repeated 4x: 24
 * points, 18 duplicates — the overlap profile the cache exists for.
 */
service::SweepRequest
duplicateHeavyGrid()
{
    const std::string request_json = R"({"points": [
        {"config": {"kind": "Baseline", "cores": 16},
         "workload": {"kind": "tightloop", "iterations": 12}},
        {"config": {"kind": "WiSync", "cores": 16},
         "workload": {"kind": "tightloop", "iterations": 12}},
        {"config": {"kind": "WiSync", "cores": 16,
                    "wireless": {"mac": "Token"}},
         "workload": {"kind": "tightloop", "iterations": 12}},
        {"config": {"kind": "WiSyncNoT", "cores": 16},
         "workload": {"kind": "tightloop", "iterations": 12}},
        {"config": {"kind": "WiSync", "cores": 16},
         "workload": {"kind": "cas", "kernel": "lifo",
                      "duration": 20000}},
        {"config": {"kind": "WiSync", "cores": 16},
         "workload": {"kind": "cas", "kernel": "add",
                      "duration": 20000}}
    ]})";
    service::SweepRequest unique =
        service::ConfigCodec::parseRequest(request_json);
    service::SweepRequest grid;
    for (int rep = 0; rep < 4; ++rep)
        for (const auto &p : unique.points)
            grid.points.push_back(p);
    return grid;
}

} // namespace

int
main()
{
    const auto request = duplicateHeavyGrid();
    const std::size_t n = request.points.size();
    const std::size_t unique = 6;
    const std::size_t duplicates = n - unique;
    const unsigned threads = harness::ParallelSweep::threads();

    // Reference: serial, cache disabled — the identity yardstick.
    service::SweepService reference(0);
    const auto expect = reference.runBatch(request, 1);

    // Cold batch: dedupe + cache through N workers.
    service::SweepService svc(256);
    const auto cold = svc.runBatch(request, threads);
    const std::uint64_t cold_hits = svc.lastBatch().cacheHits;
    const std::size_t cold_simulated = svc.lastBatch().simulated;

    // Warm batch: the same request again — zero simulations expected.
    const auto warm = svc.runBatch(request, threads);
    const std::size_t warm_simulated = svc.lastBatch().simulated;

    // 2-way shard split on cold per-shard services, merged by index.
    std::vector<service::ServiceOutcome> merged(n);
    for (unsigned s = 0; s < 2; ++s) {
        service::SweepService shard_svc(256);
        const auto idx = service::ShardPlanner::planByCost(request, s, 2);
        auto part = shard_svc.runBatch(
            service::ShardPlanner::subRequest(request, idx), threads);
        service::ShardPlanner::mergeByIndex(merged, idx,
                                            std::move(part));
    }

    bool identical = true;
    for (std::size_t i = 0; i < n; ++i) {
        identical = identical && cold[i].ok && warm[i].ok &&
                    merged[i].ok &&
                    workloads::bitIdentical(expect[i].result,
                                            cold[i].result) &&
                    workloads::bitIdentical(expect[i].result,
                                            warm[i].result) &&
                    workloads::bitIdentical(expect[i].result,
                                            merged[i].result);
    }

    // Persistence: spill the warm cache through CacheStore, warm a
    // fresh service from the file, and re-answer the whole batch
    // without simulating; then truncate the file mid-record and show
    // the salvaged prefix still serves its points.
    const std::string store_path =
        "/tmp/wisync_bench_service_" +
        std::to_string(static_cast<long long>(::getpid())) + ".bin";
    bool warm_from_disk_identical = false;
    std::size_t salvaged_loaded = 0;
    std::size_t salvaged_prefix_hits = 0;
    {
        std::string error;
        if (service::CacheStore::save(svc.cache(), store_path,
                                      &error)) {
            service::SweepService disk_svc(256);
            const auto stats = service::CacheStore::load(
                disk_svc.cache(), store_path);
            const auto from_disk = disk_svc.runBatch(request, threads);
            warm_from_disk_identical =
                stats.loaded == unique && stats.discarded == 0 &&
                disk_svc.lastBatch().simulated == 0;
            for (std::size_t i = 0; i < n; ++i)
                warm_from_disk_identical =
                    warm_from_disk_identical && from_disk[i].ok &&
                    workloads::bitIdentical(expect[i].result,
                                            from_disk[i].result);

            // Cut the last record's tail: the prefix must salvage and
            // every salvaged record must answer its point warm.
            std::uint64_t file_size = 0;
            {
                std::ifstream f(store_path,
                                std::ios::binary | std::ios::ate);
                file_size = static_cast<std::uint64_t>(f.tellg());
            }
            service::FaultPlan::truncateFile(store_path,
                                             file_size - 10);
            service::SweepService salvage_svc(256);
            const auto salvage = service::CacheStore::load(
                salvage_svc.cache(), store_path);
            salvaged_loaded = salvage.loaded;
            const auto salvaged =
                salvage_svc.runBatch(request, threads);
            salvaged_prefix_hits =
                unique - salvage_svc.lastBatch().simulated;
            bool salvaged_identical =
                salvaged_prefix_hits == salvage.loaded;
            for (std::size_t i = 0; i < n; ++i)
                salvaged_identical =
                    salvaged_identical && salvaged[i].ok &&
                    workloads::bitIdentical(expect[i].result,
                                            salvaged[i].result);
            if (!salvaged_identical)
                salvaged_prefix_hits = 0; // fail the gate loudly
        } else {
            std::fprintf(stderr, "cache spill failed: %s\n",
                         error.c_str());
        }
        std::remove(store_path.c_str());
    }

    std::printf("sweep service, %zu-point batch (%zu unique):\n", n,
                unique);
    std::printf("  cold: %zu simulated, %llu cache hits (>= %zu "
                "duplicates)\n",
                cold_simulated, static_cast<unsigned long long>(cold_hits),
                duplicates);
    std::printf("  warm: %zu simulated\n", warm_simulated);
    std::printf("  identity (serial == cold == warm == sharded): %s\n",
                identical ? "yes" : "NO");
    std::printf("  disk: warm-from-file identical %s, salvage after "
                "truncation %zu/%zu warm (%zu records loaded)\n",
                warm_from_disk_identical ? "yes" : "NO",
                salvaged_prefix_hits, unique, salvaged_loaded);
    if (!identical || cold_hits < duplicates || warm_simulated != 0 ||
        !warm_from_disk_identical || salvaged_prefix_hits < 1)
        return 1;

    if (!bench::kTimingGatesApply) {
        std::puts("warm speedup gate skipped: sanitizer or "
                  "assert-enabled build");
        return bench::kSkipTimingGates;
    }
    // Warm leg: the warmed service again; cold leg: a fresh service.
    const double speedup = bench::interleavedRatio(
        [&] { (void)svc.runBatch(request, threads); },
        [&] {
            service::SweepService fresh(256);
            (void)fresh.runBatch(request, threads);
        },
        3);
    return bench::gateAtLeast("warm speedup", speedup, 2.0) ? 0 : 1;
}
