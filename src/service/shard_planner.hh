/**
 * @file
 * Deterministic partitioning of a sweep grid across worker processes.
 *
 * ParallelSweep scales one process over host threads; multi-host
 * scale-out means carving one request into K independent shards that
 * separate processes (wisync_sweepd --shard i/k) can run and a shell
 * loop can merge. The plan must be a pure function of (points, i, k)
 * — every shard computes its own slice from the full request with no
 * coordination — and the merge must reassemble exactly the serial
 * order.
 *
 * The plan (planByCost) gives each point a deterministic cost
 * estimate — cores x workload-length — and bin-packs the points
 * greedily (longest-processing-time first) onto the k shards. Equal
 * costs keep request order and equal loads pick the lowest shard, so
 * on a uniform-cost grid point i lands on shard i mod k: the strided
 * split, which deals every shard the same cost mixture of a grid
 * sorted along a cost axis. Where costs vary it balances better, also
 * on grids whose cost pattern resonates with a stride (every k-th
 * point heavy).
 *
 * Results merge back by global point index, so any shard count
 * reproduces the serial output byte-for-byte — the same by-index
 * merge argument ParallelSweep makes for threads, one level up.
 */

#ifndef WISYNC_SERVICE_SHARD_PLANNER_HH
#define WISYNC_SERVICE_SHARD_PLANNER_HH

#include <cstddef>
#include <vector>

#include "service/config_codec.hh"

namespace wisync::service {

/** See the file comment. */
class ShardPlanner
{
  public:
    /**
     * Deterministic relative cost of one point: cores x the
     * workload's length estimate. Not a cycle prediction — only the
     * ratios between points matter for balancing.
     */
    static std::uint64_t pointCost(const RequestPoint &point);

    /**
     * Global indices owned by @p shard of @p num_shards, bin-packed by
     * pointCost (LPT greedy with deterministic tie-breaks — a pure
     * function of the request and (shard, num_shards)). Returned in
     * increasing order; disjoint and covering across shards, so
     * mergeByIndex reassembles exactly the serial output. @p shard
     * must be < @p num_shards, and @p num_shards >= 1.
     */
    static std::vector<std::size_t>
    planByCost(const SweepRequest &request, unsigned shard,
               unsigned num_shards);

    /** The sub-request holding exactly @p indices' points. */
    static SweepRequest subRequest(const SweepRequest &request,
                                   const std::vector<std::size_t> &indices);

    /**
     * Scatter a shard's outcomes back into the full-grid vector:
     * @p merged[indices[j]] = outcomes[j]. @p merged must already be
     * sized to the full grid; @p indices is the same vector
     * planByCost() handed the shard (the merge is by-index, so
     * shard completion order cannot reorder it).
     */
    template <typename Outcome>
    static void
    mergeByIndex(std::vector<Outcome> &merged,
                 const std::vector<std::size_t> &indices,
                 std::vector<Outcome> outcomes)
    {
        for (std::size_t j = 0; j < indices.size(); ++j)
            merged[indices[j]] = std::move(outcomes[j]);
    }
};

} // namespace wisync::service

#endif // WISYNC_SERVICE_SHARD_PLANNER_HH
