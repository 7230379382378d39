#include "noc/mesh.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace wisync::noc {

namespace {

/** Directional link indices relative to a node. */
enum Dir : std::size_t { East = 0, West = 1, North = 2, South = 3 };

} // namespace

Mesh::Mesh(sim::Engine &engine, const MeshConfig &cfg)
    : engine_(engine), cfg_(cfg)
{
    WISYNC_ASSERT(cfg_.numNodes > 0, "mesh needs at least one node");
    WISYNC_ASSERT(cfg_.linkBits > 0, "links need nonzero width");
    WISYNC_ASSERT(cfg_.hopCycles > 0, "hops need at least one cycle");
    width_ = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(cfg_.numNodes))));
    // Routes may pass through grid positions beyond the last populated
    // node (a non-square core count still has a full router grid), so
    // links cover the whole width x width mesh.
    const std::uint32_t grid = width_ * width_;
    coords_.reserve(grid);
    for (std::uint32_t n = 0; n < grid; ++n)
        coords_.push_back(Coord{n % width_, n / width_});
    links_.reserve(grid * 4);
    inject_.reserve(cfg_.numNodes);
    for (std::uint32_t n = 0; n < grid * 4; ++n)
        links_.push_back(std::make_unique<coro::SimMutex>(engine_));
    for (std::uint32_t n = 0; n < cfg_.numNodes; ++n)
        inject_.push_back(std::make_unique<coro::SimMutex>(engine_));
}

void
Mesh::reset(const MeshConfig &cfg)
{
    WISYNC_FATAL_IF(cfg.numNodes != cfg_.numNodes,
                    "Mesh::reset cannot change the node count");
    WISYNC_ASSERT(cfg.linkBits > 0, "links need nonzero width");
    WISYNC_ASSERT(cfg.hopCycles > 0, "hops need at least one cycle");
    cfg_ = cfg;
    for (auto &link : links_)
        link->reset();
    for (auto &port : inject_)
        port->reset();
    stats_.reset();
}

std::uint32_t
Mesh::hops(sim::NodeId a, sim::NodeId b) const
{
    const auto dx = xOf(a) > xOf(b) ? xOf(a) - xOf(b) : xOf(b) - xOf(a);
    const auto dy = yOf(a) > yOf(b) ? yOf(a) - yOf(b) : yOf(b) - yOf(a);
    return dx + dy;
}

std::uint32_t
Mesh::flitsOf(std::uint32_t bits) const
{
    return std::max(1u, (bits + cfg_.linkBits - 1) / cfg_.linkBits);
}

std::size_t
Mesh::linkId(sim::NodeId a, sim::NodeId b) const
{
    if (xOf(b) == xOf(a) + 1)
        return a * 4 + East;
    if (xOf(b) + 1 == xOf(a))
        return a * 4 + West;
    if (yOf(b) + 1 == yOf(a))
        return a * 4 + North;
    if (yOf(b) == yOf(a) + 1)
        return a * 4 + South;
    WISYNC_PANIC("linkId of non-adjacent nodes %u -> %u", a, b);
}

/**
 * Frameless head-flit driver.
 *
 * Awaited by send(); lives in send()'s (pooled) frame across the
 * single suspension. Each step runs at the cycle the head reaches that
 * router. A free link is taken as a timed reservation (no release
 * event unless a contender queues). A held link parks the head in the
 * link's FIFO as a plain callback waiter, in the same event; the grant
 * turns the hold into the same timed reservation and the head steps
 * on.
 */
class Mesh::FastTransfer
{
  public:
    FastTransfer(Mesh &mesh, sim::NodeId src, sim::NodeId dst,
                 std::uint32_t flits)
        : mesh_(mesh), cur_(src), dst_(dst), flits_(flits)
    {}

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        caller_ = h;
        // The head enters the first link inline, in the co_await's event.
        step();
    }

    void await_resume() const noexcept {}

  private:
    /** POD callback wrappers: 8 bytes, always in the event's SBO. */
    struct StepFn
    {
        FastTransfer *t;
        void operator()() const { t->step(); }
    };
    struct FinishFn
    {
        FastTransfer *t;
        void operator()() const { t->finish(); }
    };

    void
    step()
    {
        // XY routing: finish the X leg, then the Y leg.
        const Coord c = mesh_.coords_[cur_];
        const Coord d = mesh_.coords_[dst_];
        if (c.x != d.x) {
            dir_ = d.x > c.x ? East : West;
            next_ = d.x > c.x ? cur_ + 1 : cur_ - 1;
        } else {
            dir_ = d.y > c.y ? South : North;
            next_ = d.y > c.y ? cur_ + mesh_.width_ : cur_ - mesh_.width_;
        }
        coro::SimMutex &link = *mesh_.links_[cur_ * 4 + dir_];
        // The link stays busy until the tail flit crosses it; the head
        // moves on in parallel. Freeing on a timer (rather than when
        // the head secures the next hop) models routers with enough
        // buffering to absorb a blocked message — optimistic under
        // heavy congestion, exact otherwise.
        if (!link.tryReserve(mesh_.engine_.now() + flits_)) {
            // Held: queue in the link's FIFO, in this very event. Only
            // the first held link counts.
            if (!contended_)
                mesh_.stats_.fastpathFallbacks.inc();
            contended_ = true;
            link.wait(&FastTransfer::granted, this);
            return;
        }
        advance();
    }

    /** The link is ours: the head crosses it in hopCycles. */
    void
    advance()
    {
        cur_ = next_;
        if (cur_ == dst_)
            mesh_.engine_.scheduleIn(mesh_.cfg_.hopCycles, FinishFn{this});
        else
            mesh_.engine_.scheduleIn(mesh_.cfg_.hopCycles, StepFn{this});
    }

    /** Hand-off of a held link: hold it until the tail crosses, then
     *  move on. */
    static void
    granted(void *self)
    {
        auto *t = static_cast<FastTransfer *>(self);
        t->mesh_.links_[t->cur_ * 4 + t->dir_]->holdUntil(
            t->mesh_.engine_.now() + t->flits_);
        t->advance();
    }

    void
    finish()
    {
        // Head arrived; the tail is flits-1 cycles behind. Single-flit
        // messages resume the sender inside this event.
        if (!contended_)
            mesh_.stats_.fastpathHits.inc();
        if (flits_ > 1)
            mesh_.engine_.resumeHandle(flits_ - 1, caller_);
        else
            caller_.resume();
    }

    Mesh &mesh_;
    sim::NodeId cur_;
    sim::NodeId dst_;
    sim::NodeId next_ = 0;
    std::uint32_t flits_;
    std::uint32_t dir_ = East;
    bool contended_ = false;
    std::coroutine_handle<> caller_;
};

coro::Task<void>
Mesh::send(sim::NodeId src, sim::NodeId dst, std::uint32_t bits)
{
    const sim::Cycle start = engine_.now();
    const std::uint32_t flits = flitsOf(bits);
    stats_.messages.inc();
    stats_.flits.inc(flits);
    if (src == dst) {
        // Local turnaround through the node's port.
        co_await coro::delay(engine_, 1);
    } else {
        co_await FastTransfer(*this, src, dst, flits);
    }
    stats_.latency.sample(static_cast<double>(engine_.now() - start));
}

coro::Task<void>
Mesh::tailDelay(std::uint32_t flits)
{
    co_await coro::delay(engine_, flits - 1);
}

coro::Task<void>
Mesh::treeDeliver(sim::NodeId cur, NodeVec dsts, std::uint32_t flits)
{
    NodeVec east, west, north, south;
    bool here = false;
    for (const auto d : dsts) {
        if (d == cur) {
            here = true;
        } else if (xOf(d) > xOf(cur)) {
            east.push_back(d);
        } else if (xOf(d) < xOf(cur)) {
            west.push_back(d);
        } else if (yOf(d) < yOf(cur)) {
            north.push_back(d);
        } else {
            south.push_back(d);
        }
    }

    sim::InlineVec<coro::Task<void>, 4> branches;
    auto descend = [&](NodeVec group) -> coro::Task<void> {
        const sim::NodeId next =
            xOf(group.front()) > xOf(cur)   ? nodeAt(xOf(cur) + 1, yOf(cur))
            : xOf(group.front()) < xOf(cur) ? nodeAt(xOf(cur) - 1, yOf(cur))
            : yOf(group.front()) < yOf(cur) ? nodeAt(xOf(cur), yOf(cur) - 1)
                                            : nodeAt(xOf(cur), yOf(cur) + 1);
        // Held until the tail crosses, as a timed reservation: the
        // release event exists only if another head queues for it.
        coro::SimMutex &link = *links_[linkId(cur, next)];
        co_await link.lock();
        link.holdUntil(engine_.now() + flits);
        co_await coro::delay(engine_, cfg_.hopCycles);
        co_await treeDeliver(next, std::move(group), flits);
    };
    if (!east.empty())
        branches.push_back(descend(std::move(east)));
    if (!west.empty())
        branches.push_back(descend(std::move(west)));
    if (!north.empty())
        branches.push_back(descend(std::move(north)));
    if (!south.empty())
        branches.push_back(descend(std::move(south)));

    if (here && flits > 1) {
        // Local delivery: the tail arrives flits-1 cycles behind the
        // head, overlapping any downstream branch transfers.
        branches.push_back(tailDelay(flits));
    }

    if (!branches.empty())
        co_await coro::whenAll(engine_, std::move(branches));
}

coro::Task<void>
Mesh::multicast(sim::NodeId src, std::span<const sim::NodeId> dsts,
                std::uint32_t bits)
{
    if (dsts.empty())
        co_return;
    stats_.multicasts.inc();
    const std::uint32_t flits = flitsOf(bits);

    if (cfg_.treeMulticast) {
        stats_.messages.inc();
        stats_.flits.inc(flits);
        NodeVec targets;
        targets.reserve(dsts.size());
        for (const auto d : dsts)
            targets.push_back(d);
        co_await treeDeliver(src, std::move(targets), flits);
        co_return;
    }

    // Serial replication at the source: one unicast per destination,
    // injected one per cycle through the node's port.
    sim::InlineVec<coro::Task<void>, 8> sends;
    sends.reserve(dsts.size());
    auto one = [this, src, bits](sim::NodeId dst) -> coro::Task<void> {
        co_await inject_[src]->lock();
        co_await coro::delay(engine_, 1);
        inject_[src]->unlock();
        co_await send(src, dst, bits);
    };
    for (const auto d : dsts)
        sends.push_back(one(d));
    co_await coro::whenAll(engine_, std::move(sends));
}

sim::Cycle
Mesh::zeroLoadLatency(sim::NodeId src, sim::NodeId dst,
                      std::uint32_t bits) const
{
    if (src == dst)
        return 1;
    return static_cast<sim::Cycle>(hops(src, dst)) * cfg_.hopCycles +
           flitsOf(bits) - 1;
}

} // namespace wisync::noc
