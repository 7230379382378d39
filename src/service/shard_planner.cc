#include "service/shard_planner.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace wisync::service {

std::uint64_t
ShardPlanner::pointCost(const RequestPoint &point)
{
    const std::uint64_t cost =
        std::uint64_t(point.config.numCores) *
        point.workload.lengthEstimate();
    return cost == 0 ? 1 : cost;
}

std::vector<std::size_t>
ShardPlanner::planByCost(const SweepRequest &request, unsigned shard,
                         unsigned num_shards)
{
    WISYNC_FATAL_IF(num_shards == 0, "need at least one shard");
    WISYNC_FATAL_IF(shard >= num_shards,
                    "shard %u out of range (have %u shards)", shard,
                    num_shards);
    const std::size_t n = request.points.size();

    // LPT greedy: place points heaviest-first onto the least-loaded
    // shard. Every tie-break is deterministic (equal costs keep
    // request order, equal loads pick the lowest shard), so all k
    // processes compute the identical full plan from the request
    // alone and just keep their own row.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::vector<std::uint64_t> cost(n);
    for (std::size_t i = 0; i < n; ++i)
        cost[i] = pointCost(request.points[i]);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });

    std::vector<std::uint64_t> load(num_shards, 0);
    std::vector<std::vector<std::size_t>> owned(num_shards);
    for (const std::size_t i : order) {
        unsigned best = 0;
        for (unsigned s = 1; s < num_shards; ++s)
            if (load[s] < load[best])
                best = s;
        load[best] += cost[i];
        owned[best].push_back(i);
    }
    std::vector<std::size_t> indices = std::move(owned[shard]);
    // Increasing order: the sub-request keeps the request's relative
    // point order, which keeps worker assignment deterministic and the
    // by-index merge contract intact.
    std::sort(indices.begin(), indices.end());
    return indices;
}

SweepRequest
ShardPlanner::subRequest(const SweepRequest &request,
                         const std::vector<std::size_t> &indices)
{
    SweepRequest out;
    out.points.reserve(indices.size());
    for (const std::size_t i : indices) {
        WISYNC_FATAL_IF(i >= request.points.size(),
                        "sub-request index %zu out of range", i);
        out.points.push_back(request.points[i]);
    }
    return out;
}

} // namespace wisync::service
