/**
 * @file
 * Common result record for kernel/application runs.
 */

#ifndef WISYNC_WORKLOADS_KERNEL_RESULT_HH
#define WISYNC_WORKLOADS_KERNEL_RESULT_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/types.hh"

namespace wisync::core {
class Machine;
}

namespace wisync::workloads {

/**
 * Outcome of one simulated workload run. Every field is listed once in
 * forEachCounter() below, which derives bitIdentical(), the service's
 * result JSON and the cache-store record: adding a field means adding
 * it to that list.
 */
struct KernelResult
{
    /** Total simulated execution time. */
    sim::Cycle cycles = 0;
    /** True if every thread finished before the run limit. */
    bool completed = false;
    /** Operations completed (kernel-specific: iterations, CASes...). */
    std::uint64_t operations = 0;
    /** Data-channel busy fraction (0 for wired configs). */
    double dataChannelUtilisation = 0.0;
    /** Wireless collisions observed (0 for wired configs). */
    std::uint64_t collisions = 0;

    // MAC-protocol telemetry (all 0 for wired configs; see
    // wireless::MacStats for the per-counter semantics).
    /** Cycles senders spent in collision backoff. */
    std::uint64_t macBackoffCycles = 0;
    /** Acquires that queued for the token (token/adaptive MACs). */
    std::uint64_t macTokenWaits = 0;
    /** Ring hops the token travelled (token-family MACs). */
    std::uint64_t macTokenRotations = 0;
    /** BRS <-> token transitions (adaptive MAC). */
    std::uint64_t macModeSwitches = 0;

    // Lossy-channel reliability telemetry (all 0 at lossPct = 0 with
    // no SNR-derived loss, which is what keeps these fields from
    // perturbing the loss0 identity gate).
    /** Broadcasts corrupted by the channel (no node delivered). */
    std::uint64_t wirelessDrops = 0;
    /** Ack windows that expired. */
    std::uint64_t macAckTimeouts = 0;
    /** Retransmissions performed by the reliability layer. */
    std::uint64_t macRetransmits = 0;
    /** Sends abandoned after maxRetries (typed delivery failures). */
    std::uint64_t macGiveups = 0;

    // Multi-chip telemetry (all 0 on single-chip machines, which is
    // what keeps these fields from perturbing the numChips=1 identity
    // gate).
    /** Frames carried by the inter-chip bridge. */
    std::uint64_t bridgeFrames = 0;
    /** Cycles the bridge serializer was busy. */
    std::uint64_t bridgeBusyCycles = 0;
    /** RMWs aborted because a bridged update had not landed yet. */
    std::uint64_t staleRmwAborts = 0;

    // Lossy-bridge reliability telemetry (all 0 on an ideal bridge —
    // the multi-chip default — which keeps these fields from
    // perturbing the ideal-bridge identity gate).
    /** Bridge serializations corrupted by the lossy link. */
    std::uint64_t bridgeDrops = 0;
    /** Bridge ack windows that expired (one per drop). */
    std::uint64_t bridgeAckTimeouts = 0;
    /** Bridge retransmissions within a frame's retry budget. */
    std::uint64_t bridgeRetransmits = 0;
    /** Bridge retry budgets exhausted (each triggers a re-issue, so
     *  no global BM update is ever lost). */
    std::uint64_t bridgeGiveups = 0;

    // Host-side telemetry, aggregated over the mesh and memory
    // layers. Listed as CounterKind::Host: they describe which
    // host-time route served each message or access (frameless, or
    // queued / through the coroutine transaction), not the simulation.
    /** Unicasts that met no held link plus accesses that hit in L1. */
    std::uint64_t fastpathHits = 0;
    /** Unicasts that queued for a link plus L1 misses and upgrades. */
    std::uint64_t fastpathFallbacks = 0;

    double
    opsPerKiloCycle() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(operations) * 1000.0 /
                                 static_cast<double>(cycles);
    }
};

/** What a KernelResult field reports (see forEachCounter). */
enum class CounterKind
{
    /** A simulated observable: part of bitIdentical() and of the
     *  service's result JSON. */
    Simulated,
    /** Host telemetry: persisted in the cache store, but never part of
     *  a result's identity. */
    Host,
};

/**
 * The one list of KernelResult fields, in their canonical order:
 * calls @p v(name, member, kind) for each. bitIdentical(), the
 * service's result JSON and the cache-store record layout all walk
 * it, so a field added here is compared, served and persisted.
 * CacheStore::formatVersion() folds in every name in order, so adding,
 * renaming or reordering a field refuses old cache files (and trips
 * the test that pins the version).
 */
template <typename R, typename V>
constexpr void
forEachCounter(R &r, V &&v)
{
    using enum CounterKind;
    v("cycles", r.cycles, Simulated);
    v("completed", r.completed, Simulated);
    v("operations", r.operations, Simulated);
    v("dataChannelUtilisation", r.dataChannelUtilisation, Simulated);
    v("collisions", r.collisions, Simulated);
    v("macBackoffCycles", r.macBackoffCycles, Simulated);
    v("macTokenWaits", r.macTokenWaits, Simulated);
    v("macTokenRotations", r.macTokenRotations, Simulated);
    v("macModeSwitches", r.macModeSwitches, Simulated);
    v("wirelessDrops", r.wirelessDrops, Simulated);
    v("macAckTimeouts", r.macAckTimeouts, Simulated);
    v("macRetransmits", r.macRetransmits, Simulated);
    v("macGiveups", r.macGiveups, Simulated);
    v("bridgeFrames", r.bridgeFrames, Simulated);
    v("bridgeBusyCycles", r.bridgeBusyCycles, Simulated);
    v("staleRmwAborts", r.staleRmwAborts, Simulated);
    v("bridgeDrops", r.bridgeDrops, Simulated);
    v("bridgeAckTimeouts", r.bridgeAckTimeouts, Simulated);
    v("bridgeRetransmits", r.bridgeRetransmits, Simulated);
    v("bridgeGiveups", r.bridgeGiveups, Simulated);
    v("fastpathHits", r.fastpathHits, Host);
    v("fastpathFallbacks", r.fastpathFallbacks, Host);
}

/** Number of fields forEachCounter visits. */
inline constexpr std::size_t kCounterCount = [] {
    const KernelResult r;
    std::size_t n = 0;
    forEachCounter(r, [&](const char *, const auto &, CounterKind) {
        ++n;
    });
    return n;
}();

/** Every counter as its canonical 8-byte word (sim::toWord), in list
 *  order: the cache-store record layout. */
using CounterWords = std::array<std::uint64_t, kCounterCount>;
CounterWords toCounterWords(const KernelResult &r);
/** Inverse of toCounterWords. */
KernelResult fromCounterWords(const CounterWords &words);

/**
 * Fill the wireless-channel columns (utilisation, collisions), the
 * MAC-protocol telemetry, the bridge counters and the fast-path
 * counters from @p machine. The wireless columns are a no-op on wired
 * configs, where the zero-initialized fields are already correct; the
 * fast-path counters aggregate mesh + memory on every config. On a
 * multi-chip machine the channel columns sum over every
 * frequency-plan channel (utilisation is the mean busy fraction).
 * Every run*On workload epilogue calls this instead of reading the
 * channel by hand.
 */
void captureChannelStats(KernelResult &result, core::Machine &machine);

/**
 * Equality over every CounterKind::Simulated field, doubles compared
 * by bit pattern — the determinism contract the sweep benches and
 * tests assert between serial and parallel runs. Host telemetry is
 * excluded: it describes how the host got there, not what was
 * simulated.
 */
bool bitIdentical(const KernelResult &a, const KernelResult &b);

} // namespace wisync::workloads

#endif // WISYNC_WORKLOADS_KERNEL_RESULT_HH
