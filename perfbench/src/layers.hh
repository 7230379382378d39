/**
 * @file
 * Per-point layer counts, read from each module's public stats()
 * accessors after a point's workload has run on its machine.
 *
 * The deterministic counts are a pure function of the simulated point
 * (the repo-wide determinism contract), so every run of one seed must
 * reproduce them exactly; the driver digests them and fails a run on
 * any drift. The host counts depend on which worker ran which point
 * and on pool history, so they are reported but never compared.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "coro/frame_pool.hh"

namespace wisync::core {
class Machine;
}

namespace perfbench {

/** Deterministic counts, one slot each (see kCountNames). */
enum Count : std::size_t
{
    // sim
    kEvents,
    kTierReady,
    kTierCalendar,
    kTierHeap,
    kCascades,
    kSimCycles,
    // coro
    kFramesPooled,
    kFramesFallback,
    // noc
    kMeshMessages,
    kMeshFlits,
    kMeshFastHits,
    kMeshFastFallbacks,
    kBridgeFrames,
    kBridgeBusyCycles,
    // mem
    kMemLoads,
    kMemStores,
    kMemRmws,
    kL1Hits,
    kL1Misses,
    kInvalidations,
    kDramFetches,
    kMemFastHits,
    kMemFastFallbacks,
    // bm
    kBmStores,
    kBmRmws,
    kBmAfbFailures,
    kBmToneStores,
    kBmSendReissues,
    // wireless
    kToneSlotCycles,
    kToneReleases,
    kDataMessages,
    kDataCollisions,
    kDataDrops,
    kDataBusyCycles,
    kMacBackoffCycles,
    kMacRetransmits,
    kMacGiveups,
    // workloads
    kOperations,
    kNumCounts,
};

struct LayerCounts
{
    std::array<std::uint64_t, kNumCounts> v{};

    std::uint64_t operator[](Count c) const { return v[c]; }

    LayerCounts &
    operator+=(const LayerCounts &o)
    {
        for (std::size_t i = 0; i < kNumCounts; ++i)
            v[i] += o.v[i];
        return *this;
    }

    bool operator==(const LayerCounts &) const = default;
};

/** Scheduling- and pool-history-dependent counts (never compared). */
struct HostCounts
{
    std::uint64_t freelistReuses = 0;
    std::uint64_t dirRehashes = 0;

    HostCounts &
    operator+=(const HostCounts &o)
    {
        freelistReuses += o.freelistReuses;
        dirRehashes += o.dirRehashes;
        return *this;
    }
};

/** Monotonic pool counters sampled on the worker before a run. */
struct PreRun
{
    wisync::coro::FramePool::Stats frames;
    std::uint64_t dirRehashes = 0;
};

/** Call on the running thread right before the workload starts. */
PreRun snapshot(wisync::core::Machine &machine);

/** Call on the same thread right after it returns. */
void capture(wisync::core::Machine &machine, const PreRun &pre,
             LayerCounts &counts, HostCounts &host);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
