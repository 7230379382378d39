#include "service/sweep_service.hh"

#include <unordered_map>
#include <utility>

#include "harness/parallel_sweep.hh"

namespace wisync::service {

std::vector<ServiceOutcome>
SweepService::runBatch(const SweepRequest &request, unsigned threads,
                       const Observer &observer)
{
    const std::size_t n = request.points.size();
    std::vector<ServiceOutcome> outcomes(n);
    BatchStats stats;
    stats.points = n;

    // Classification pass (calling thread): answer warm cache hits
    // immediately, schedule the first occurrence of every unseen
    // point, and park later occurrences as duplicates of their
    // representative. Scheduling in request order keeps the sweep
    // grid — and therefore worker assignment and machine-cache
    // locality — deterministic for a given request + cache state.
    harness::ParallelSweep sweep;
    std::vector<std::size_t> sweepToRequest;
    std::vector<std::vector<std::size_t>> duplicatesOf;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> seen;

    for (std::size_t i = 0; i < n; ++i) {
        const RequestPoint &point = request.points[i];
        const std::uint64_t fp = point.fingerprint();
        outcomes[i].fingerprint = fp;

        if (const workloads::KernelResult *hit = cache_.lookup(point)) {
            outcomes[i].result = *hit;
            outcomes[i].ok = true;
            outcomes[i].cacheHit = true;
            ++stats.cacheHits;
            if (observer)
                observer(i, outcomes[i]);
            continue;
        }

        // In-batch dedupe, exact like the cache: same fingerprint is
        // only a duplicate if the whole point compares equal.
        bool duplicate = false;
        for (const std::size_t sj : seen[fp]) {
            if (request.points[sweepToRequest[sj]] == point) {
                duplicatesOf[sj].push_back(i);
                duplicate = true;
                break;
            }
        }
        if (duplicate)
            continue;

        const WorkloadSpec workload = point.workload;
        const BodyProbe probe = bodyProbe_;
        const std::size_t sj =
            sweep.add(point.config, [workload, probe, i](core::Machine &m) {
                if (probe)
                    probe(i);
                return runWorkload(workload, m);
            });
        seen[fp].push_back(sj);
        sweepToRequest.push_back(i);
        duplicatesOf.emplace_back();
    }
    stats.simulated = sweep.size();

    // Completion streaming (worker threads, serialized by the sweep's
    // emit mutex — which also serializes the cache mutations below):
    // land the representative, insert it into the cache, then answer
    // its in-batch duplicates from the entry just inserted — each one
    // a literal, counted cache hit. With caching disabled (or a
    // failed representative) duplicates copy the representative's
    // outcome directly; either way their bits are identical to
    // simulating them.
    sweep.onOutcomeComplete([&](std::size_t sj,
                                const harness::PointOutcome &po) {
        const std::size_t r = sweepToRequest[sj];
        ServiceOutcome &rep = outcomes[r];
        rep.result = po.result;
        rep.ok = po.ok;
        rep.error = po.error;
        if (po.ok)
            cache_.insert(request.points[r], po.result);
        else
            ++stats.errors;
        if (observer)
            observer(r, rep);

        for (const std::size_t d : duplicatesOf[sj]) {
            ServiceOutcome &dup = outcomes[d];
            if (po.ok) {
                const workloads::KernelResult *hit =
                    cache_.capacity() == 0
                        ? nullptr
                        : cache_.lookup(request.points[d]);
                dup.result = hit != nullptr ? *hit : po.result;
                dup.ok = true;
                dup.cacheHit = true;
                ++stats.cacheHits;
            } else {
                dup.ok = false;
                dup.error = po.error;
                ++stats.errors;
            }
            if (observer)
                observer(d, dup);
        }
    });
    (void)sweep.runCaptured(threads);

    lastBatch_ = stats;
    return outcomes;
}

} // namespace wisync::service
