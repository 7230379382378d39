/**
 * @file
 * 2D-mesh on-chip network model.
 *
 * Matches the paper's Table 1: 2D mesh, 4 cycles/hop, 128-bit links.
 * Messages are wormhole-routed with XY (dimension-order) routing: the
 * head flit pays the per-hop latency at each router, the tail follows
 * `flits-1` cycles behind, and each directional link is occupied for
 * `flits` cycles per message, which is where contention comes from.
 *
 * XY routing's channel-dependency graph is acyclic, so the model's
 * hold-link-while-waiting-for-next-link discipline cannot deadlock.
 *
 * Two multicast modes (paper §6, Table 2):
 *  - serial:  the source injects one unicast per destination, one
 *    injection per cycle (plain `Baseline` router, no broadcast HW).
 *  - tree:    a single message is replicated at fan-out routers
 *    (`Baseline+`'s "virtual tree-based broadcast ... with flit
 *    replication at the router crossbars", Krishna et al. [22]).
 *    Each tree hop holds its link as a timed SimMutex reservation
 *    (below), so an uncontended hop schedules no release event.
 *
 * Unicast (send) drives the head flit down the XY route with a
 * frameless step chain: one plain callback event per hop, taking each
 * link as a timed SimMutex reservation that ends when the tail crosses
 * it. A unicast therefore costs hops+2 events, no coroutine frame
 * beyond send() itself and zero heap allocations (no release events:
 * a reservation's release is materialized lazily, at its cycle, only
 * if a contender queues on the link). A head that finds a link held
 * waits in that link's FIFO as a plain callback waiter; on hand-off it
 * holds the link as the same timed reservation and steps on. The
 * completion cycles of contended and uncontended messages are pinned
 * by tests/test_mesh_fastpath.cc.
 */

#ifndef WISYNC_NOC_MESH_HH
#define WISYNC_NOC_MESH_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coro/primitives.hh"
#include "coro/task.hh"
#include "sim/engine.hh"
#include "sim/inline_vec.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wisync::noc {

/** Mesh geometry and timing knobs. */
struct MeshConfig
{
    std::uint32_t numNodes = 64;
    /** Router + link traversal latency per hop (cycles, >= 1). */
    std::uint32_t hopCycles = 4;
    /** Link width in bits (one flit per cycle per link). */
    std::uint32_t linkBits = 128;
    /** Replicate flits at fan-out routers for multicast (Baseline+). */
    bool treeMulticast = false;

    /** Field-wise equality (MachineConfig::operator== / fingerprint). */
    bool operator==(const MeshConfig &) const = default;
};

/** Aggregated network statistics. */
struct MeshStats
{
    sim::Counter messages;
    sim::Counter flits;
    sim::Counter multicasts;
    sim::Accumulator latency;
    /** Unicasts that met no held link on their route. */
    sim::Counter fastpathHits;
    /** Unicasts that met at least one held link and queued for it. */
    sim::Counter fastpathFallbacks;

    /** Zero everything (assignment cannot miss a late-added field). */
    void reset() { *this = {}; }
};

/**
 * The mesh fabric. One instance per simulated chip.
 *
 * All public operations are coroutines that resolve when the (last)
 * message is fully delivered.
 */
class Mesh
{
  public:
    /** Destination lists fit inline up to the Table 1 64-node chip. */
    using NodeVec = sim::InlineVec<sim::NodeId, 64>;

    Mesh(sim::Engine &engine, const MeshConfig &cfg);

    /** Grid side length (smallest square holding numNodes). */
    std::uint32_t width() const { return width_; }

    /** Manhattan hop distance between two nodes. */
    std::uint32_t hops(sim::NodeId a, sim::NodeId b) const;

    /**
     * Send @p bits from @p src to @p dst; resolves at delivery.
     * Same-node "transfers" cost one cycle (local bank port hop).
     */
    coro::Task<void> send(sim::NodeId src, sim::NodeId dst,
                          std::uint32_t bits);

    /**
     * Deliver @p bits to every destination; resolves when the last
     * destination has the message. Mode depends on cfg.treeMulticast.
     * @p dsts is a view — the backing storage must outlive the await
     * (it always lives in the caller's suspended frame).
     */
    coro::Task<void> multicast(sim::NodeId src,
                               std::span<const sim::NodeId> dsts,
                               std::uint32_t bits);

    /** Zero-load latency of a unicast, for calibration tests. */
    sim::Cycle zeroLoadLatency(sim::NodeId src, sim::NodeId dst,
                               std::uint32_t bits) const;

    const MeshStats &stats() const { return stats_; }
    const MeshConfig &config() const { return cfg_; }

    /**
     * Return to post-construction state, optionally retiming: frees
     * all links/ports and zeroes stats. @p cfg may change timing knobs
     * (hopCycles, linkBits, treeMulticast) but must keep
     * numNodes. Callers (Machine::reset) must have destroyed in-flight
     * transfer coroutines first — link mutexes are cleared, not handed
     * off.
     */
    void reset(const MeshConfig &cfg);

  private:
    std::uint32_t xOf(sim::NodeId n) const { return coords_[n].x; }
    std::uint32_t yOf(sim::NodeId n) const { return coords_[n].y; }
    sim::NodeId nodeAt(std::uint32_t x, std::uint32_t y) const
    {
        return y * width_ + x;
    }

    std::uint32_t flitsOf(std::uint32_t bits) const;

    /** Directional link id from node @p a to adjacent node @p b. */
    std::size_t linkId(sim::NodeId a, sim::NodeId b) const;

    /** Frameless head-flit driver (awaiter; see mesh.cc). */
    class FastTransfer;

    /** Tail-flit arrival delay (flits-1 cycles). */
    coro::Task<void> tailDelay(std::uint32_t flits);

    /** Recursive XY-tree delivery used in tree-multicast mode. */
    coro::Task<void> treeDeliver(sim::NodeId cur, NodeVec dsts,
                                 std::uint32_t flits);

    sim::Engine &engine_;
    MeshConfig cfg_;
    std::uint32_t width_;
    /** Grid position of every router, so a hop never divides. */
    struct Coord
    {
        std::uint32_t x;
        std::uint32_t y;
    };
    std::vector<Coord> coords_;
    /** One FIFO mutex per directional link; index = linkId. */
    std::vector<std::unique_ptr<coro::SimMutex>> links_;
    /** Per-node injection port (serial multicast pacing). */
    std::vector<std::unique_ptr<coro::SimMutex>> inject_;
    MeshStats stats_;
};

} // namespace wisync::noc

#endif // WISYNC_NOC_MESH_HH
