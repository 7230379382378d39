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
 * Neither operation owns a coroutine frame: both return awaitables
 * that carry their state in the awaiting frame (or, for the tree, in
 * TreeHop records from the mesh's sim::RecordPool) and drive the
 * network with plain callback events, each a sim::Step of its record.
 * Each completes into a (fn, ctx) pair: an awaiter passes
 * coro::resumeFrame and its frame, and a caller with no frame (the
 * coherence state machine) posts a Send or Multicast record it owns
 * with post() and its own callback.
 *
 * Unicast (send) carries its XY route: the Send computes it once,
 * when it is made, as a pointer to the first link, the stride between
 * consecutive links of the X leg (one router east or west is 4 links
 * on in the link array) and of the Y leg (4 x width), the first link
 * of the Y leg and the hop count of each leg. A step chain then drives
 * the head flit: one callback event per hop, which takes the link it
 * points at as a timed SimMutex reservation that ends when the tail
 * crosses it, then adds the stride (or takes the turn) and files the
 * next step. No hop reads the mesh's geometry or link table. A unicast
 * therefore costs hops+1 events (plus flits-1 cycles of tail, one more
 * event, when flits > 1) and zero heap allocations (no release events:
 * a reservation's release is materialized lazily, at its cycle, only
 * if a contender queues on the link). A head that finds a link held
 * waits in that link's FIFO as a plain callback waiter; on hand-off it
 * holds the link as the same timed reservation and steps on. The head
 * takes link i only when it arrives there. The completion cycles of
 * contended and uncontended messages are pinned by
 * tests/test_mesh_fastpath.cc and tests/test_mesh.cc.
 *
 * Multicast (Baseline+ only, paper §6, Table 2) is Krishna et al.'s
 * virtual tree [22]: a single message is replicated at fan-out routers
 * "with flit replication at the router crossbars". The walk visits the
 * XY tree router by router over per-hop records, partitioning one
 * destination array in place. At each router it starts one branch
 * per direction (E, W, N, S) and, if the router is itself a
 * destination of a multi-flit message, the local tail; every start is
 * its own delta-0 event. A branch takes its link as a timed
 * reservation (or queues as a callback waiter) and arrives at the
 * next router one hop later. Once a router's branches are all done, a
 * delta-0 wake event reports it to the router upstream. Plain Baseline
 * has no broadcast hardware: the coherence layer sends one unicast per
 * destination.
 */

#ifndef WISYNC_NOC_MESH_HH
#define WISYNC_NOC_MESH_HH

#include <coroutine>
#include <cstdint>
#include <span>
#include <vector>

#include "coro/primitives.hh"
#include "sim/divisor.hh"
#include "sim/engine.hh"
#include "sim/inline_vec.hh"
#include "sim/record.hh"
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
    /** Replicate flits at fan-out routers for multicast (Baseline+).
     *  Without it the mesh has no multicast: the coherence layer
     *  sends one unicast per destination. */
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
 * Both operations are frameless awaitables resolving when the (last)
 * copy of the message is fully delivered.
 */
class Mesh
{
  public:
    /** Destination lists fit inline up to the Table 1 64-node chip. */
    using NodeVec = sim::InlineVec<sim::NodeId, 64>;

    /**
     * A unicast in flight: its XY route, the head flit's place on it
     * and the completion to run. Lives in the awaiting frame across
     * its one suspension, so it must be awaited exactly once, in the
     * statement that created it (the `co_await mesh.send(...)` shape);
     * or in a record of a frameless caller, which posts it (post()).
     */
    class [[nodiscard]] Send
    {
      public:
        /** An idle record, for post(). */
        Send() = default;

        /** Computes the route (see the file comment). */
        Send(Mesh &mesh, sim::NodeId src, sim::NodeId dst,
             std::uint32_t bits)
            : mesh_(&mesh)
        {
            plan(src, dst, bits);
        }

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            start(&coro::resumeFrame, h.address());
        }

        void await_resume() const noexcept {}

      private:
        friend class Mesh;

        /** Compute the route and clear the head's state. */
        void plan(sim::NodeId src, sim::NodeId dst, std::uint32_t bits);
        /** Inject the head; @p done(@p ctx) runs at delivery. */
        void start(void (*done)(void *), void *ctx);
        void step();
        void advance();
        /** The held link was handed over: hold it, step on. */
        void granted();
        void finish();
        /** The tail is in: sample the latency and complete. */
        void deliver();

        Mesh *mesh_ = nullptr;
        sim::Cycle start_ = 0;
        /** The link the head takes next (or holds); nullptr for a
         *  local send. */
        coro::SimMutex *link_ = nullptr;
        /** The Y leg's first link, taken after the X leg's last. */
        coro::SimMutex *turn_ = nullptr;
        /** Link-array distance between consecutive links of the
         *  current leg, and of the Y leg. */
        std::int32_t stride_ = 0;
        std::int32_t yStride_ = 0;
        /** Links left in the current leg, counting link_, and in the
         *  Y leg while the X leg runs. */
        std::uint32_t left_ = 0;
        std::uint32_t yLeft_ = 0;
        std::uint32_t flits_ = 0;
        bool contended_ = false;
        void (*done_)(void *) = nullptr;
        void *ctx_ = nullptr;
    };

    /**
     * A tree multicast in flight: its own copy of the destination
     * list, which the walk partitions in place. Awaited or posted like
     * Send.
     */
    class [[nodiscard]] Multicast
    {
      public:
        /** An idle record, for post(). */
        Multicast() = default;

        Multicast(Mesh &mesh, sim::NodeId src,
                  std::span<const sim::NodeId> dsts, std::uint32_t bits)
            : mesh_(&mesh)
        {
            plan(src, dsts, bits);
        }

        bool await_ready() const noexcept { return dsts_.empty(); }

        /** False when the tree finishes inside this call (the source
         *  is the only destination of a one-flit message). */
        bool
        await_suspend(std::coroutine_handle<> h)
        {
            return start(&coro::resumeFrame, h.address());
        }

        void await_resume() const noexcept {}

      private:
        friend class Mesh;

        /** Copy the destinations (the list keeps its capacity). */
        void plan(sim::NodeId src, std::span<const sim::NodeId> dsts,
                  std::uint32_t bits);
        /** Start the walk; @p done(@p ctx) runs once the last
         *  destination has the message. False, without calling
         *  @p done, when the walk finishes inside this call. */
        bool start(void (*done)(void *), void *ctx);

        Mesh *mesh_ = nullptr;
        sim::NodeId src_ = 0;
        std::uint32_t flits_ = 0;
        NodeVec dsts_;
    };

    Mesh(sim::Engine &engine, const MeshConfig &cfg);

    /** Grid side length (smallest square holding numNodes). */
    std::uint32_t width() const { return width_; }

    /** Manhattan hop distance between two nodes. */
    std::uint32_t hops(sim::NodeId a, sim::NodeId b) const;

    /**
     * Send @p bits from @p src to @p dst; resolves at delivery.
     * Same-node "transfers" cost one cycle (local bank port hop).
     */
    Send
    send(sim::NodeId src, sim::NodeId dst, std::uint32_t bits)
    {
        return Send(*this, src, dst, bits);
    }

    /**
     * Deliver @p bits to every destination down the XY tree (tree
     * mode only); resolves when the last destination has the message.
     * @p dsts is copied, so it may change once this returns.
     */
    Multicast multicast(sim::NodeId src, std::span<const sim::NodeId> dsts,
                        std::uint32_t bits);

    /**
     * send() for a caller with no frame: route @p bits from @p src to
     * @p dst through @p msg, a record the caller keeps until
     * @p done(@p ctx) runs at delivery (in the event an awaiter of
     * send() would resume in).
     */
    void
    post(Send &msg, sim::NodeId src, sim::NodeId dst, std::uint32_t bits,
         void (*done)(void *), void *ctx)
    {
        msg.mesh_ = this;
        msg.plan(src, dst, bits);
        msg.start(done, ctx);
    }

    /**
     * multicast() for a caller with no frame, through @p msg, which the
     * caller keeps until @p done(@p ctx) runs. False, without calling
     * @p done, when every destination has the message once this
     * returns (no destination, or the source alone with one flit).
     */
    bool post(Multicast &msg, sim::NodeId src,
              std::span<const sim::NodeId> dsts, std::uint32_t bits,
              void (*done)(void *), void *ctx);

    /** Zero-load latency of a unicast, for calibration tests. */
    sim::Cycle zeroLoadLatency(sim::NodeId src, sim::NodeId dst,
                               std::uint32_t bits) const;

    const MeshStats &stats() const { return stats_; }
    const MeshConfig &config() const { return cfg_; }

    /**
     * Return to post-construction state, optionally retiming: frees
     * all links and tree records and zeroes stats. @p cfg may change
     * timing knobs (hopCycles, linkBits, treeMulticast) but must keep
     * numNodes. Callers (Machine::reset) must have dropped in-flight
     * transfers first (Engine::reset) — link mutexes are cleared, not
     * handed off.
     */
    void reset(const MeshConfig &cfg);

  private:
    std::uint32_t xOf(sim::NodeId n) const { return coords_[n].x; }
    std::uint32_t yOf(sim::NodeId n) const { return coords_[n].y; }

    std::uint32_t flitsOf(std::uint32_t bits) const;

    /** The router one hop from @p n in direction @p dir. */
    sim::NodeId neighbor(sim::NodeId n, std::uint32_t dir) const;

    /**
     * One branch of a tree multicast, then the visit of the router it
     * reaches. The source's visit is a record with no parent. Callback
     * events and link waits carry a pointer to the record.
     */
    struct TreeHop
    {
        Mesh *mesh;
        /** The visit this branch left (nullptr at the source). */
        TreeHop *parent;
        /** The multicast's completion (source visit only). */
        void (*done)(void *);
        void *ctx;
        /** Destinations reached through this branch: [lo, hi), a
         *  slice of the multicast's array. */
        sim::NodeId *lo;
        sim::NodeId *hi;
        /** The router the branch leaves; on arrival, the one it
         *  visits. */
        sim::NodeId at;
        std::uint32_t dir;
        std::uint32_t flits;
        /** Branches and local tail of the visit still running. */
        std::uint32_t pending;

        /** Start the visit's branches and tail; true when there is
         *  none (the visit is done already). */
        bool fanOut();
        /** Event bodies, in the order a branch meets them. */
        void start();
        void granted();
        void arrive();
        void tailStart();
        /** One branch or the tail of this visit finished (the tail's
         *  event, or inside a branch's last event). */
        void childDone();
        /** The visit is done (its wake event, or inside the event that
         *  reached it): report upstream or complete the multicast, and
         *  recycle the record. */
        void visited();
    };

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
    /** cfg_.linkBits, so sizing a message shifts where it is a power
     *  of two. */
    sim::Divisor linkBits_;
    /** One FIFO mutex per directional link, in one array that never
     *  grows (Sends and queued release events point into it);
     *  index = node * 4 + dir. */
    std::vector<coro::SimMutex> links_;
    /** Tree-walk records; reset() frees them all, the records of
     *  abandoned walks included. */
    sim::RecordPool<TreeHop> hops_;
    MeshStats stats_;
};

} // namespace wisync::noc

#endif // WISYNC_NOC_MESH_HH
