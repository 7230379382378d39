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
    linkBits_ = sim::Divisor(cfg_.linkBits);
    links_.reserve(grid * 4);
    for (std::uint32_t n = 0; n < grid * 4; ++n)
        links_.emplace_back(engine_);
}

void
Mesh::reset(const MeshConfig &cfg)
{
    WISYNC_FATAL_IF(cfg.numNodes != cfg_.numNodes,
                    "Mesh::reset cannot change the node count");
    WISYNC_ASSERT(cfg.linkBits > 0, "links need nonzero width");
    WISYNC_ASSERT(cfg.hopCycles > 0, "hops need at least one cycle");
    cfg_ = cfg;
    linkBits_ = sim::Divisor(cfg_.linkBits);
    for (auto &link : links_)
        link.reset();
    // Records of abandoned walks are free again.
    hops_.reset();
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
    return static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, linkBits_.div(std::uint64_t{bits} + cfg_.linkBits - 1)));
}

sim::NodeId
Mesh::neighbor(sim::NodeId n, std::uint32_t dir) const
{
    switch (dir) {
      case East:
        return n + 1;
      case West:
        return n - 1;
      case North:
        return n - width_;
      default:
        return n + width_;
    }
}

// ---- Unicast -------------------------------------------------------------
//
// The head's step chain. Each step runs at the cycle the head reaches
// that router. A free link is taken as a timed reservation (no release
// event unless a contender queues). A held link parks the head in the
// link's FIFO as a plain callback waiter, in the same event; the grant
// turns the hold into the same timed reservation and the head steps
// on. The route is fixed when the Send is made: the steps only follow
// link_ down the link array.

void
Mesh::Send::plan(sim::NodeId src, sim::NodeId dst, std::uint32_t bits)
{
    Mesh &mesh = *mesh_;
    flits_ = mesh.flitsOf(bits);
    contended_ = false;
    link_ = nullptr;
    yLeft_ = 0;
    if (src == dst)
        return;
    // XY routing: the X leg along the source's row, then the Y leg
    // down the destination's column. Link (node, dir) is at
    // node * 4 + dir, so the next router's link in the same direction
    // is 4 on (east), 4 back (west) or a row of 4 x width away.
    const Coord s = mesh.coords_[src];
    const Coord d = mesh.coords_[dst];
    const auto row = static_cast<std::int32_t>(4 * mesh.width_);
    yStride_ = d.y > s.y ? row : -row;
    yLeft_ = d.y > s.y ? d.y - s.y : s.y - d.y;
    const sim::NodeId corner = s.y * mesh.width_ + d.x;
    turn_ = &mesh.links_[corner * 4 + (d.y > s.y ? South : North)];
    if (s.x == d.x) {
        link_ = turn_;
        stride_ = yStride_;
        left_ = yLeft_;
        yLeft_ = 0;
        return;
    }
    link_ = &mesh.links_[src * 4 + (d.x > s.x ? East : West)];
    stride_ = d.x > s.x ? 4 : -4;
    left_ = d.x > s.x ? d.x - s.x : s.x - d.x;
}

void
Mesh::Send::start(void (*done)(void *), void *ctx)
{
    done_ = done;
    ctx_ = ctx;
    start_ = mesh_->engine_.now();
    mesh_->stats_.messages.inc();
    mesh_->stats_.flits.inc(flits_);
    if (link_ == nullptr) {
        // Local turnaround through the node's port.
        mesh_->engine_.scheduleIn(1, sim::Step<&Send::deliver>{this});
        return;
    }
    // The head enters the first link inline, in the starting event.
    step();
}

void
Mesh::Send::deliver()
{
    mesh_->stats_.latency.sample(
        static_cast<double>(mesh_->engine_.now() - start_));
    done_(ctx_);
}

void
Mesh::Send::step()
{
    // The link stays busy until the tail flit crosses it; the head
    // moves on in parallel. Freeing on a timer (rather than when the
    // head secures the next hop) models routers with enough buffering
    // to absorb a blocked message — optimistic under heavy congestion,
    // exact otherwise.
    if (!link_->tryReserve(mesh_->engine_.now() + flits_)) {
        // Held: queue in the link's FIFO, in this very event. Only the
        // first held link counts.
        if (!contended_)
            mesh_->stats_.fastpathFallbacks.inc();
        contended_ = true;
        link_->wait(&sim::Step<&Send::granted>::call, this);
        return;
    }
    advance();
}

void
Mesh::Send::advance()
{
    // The link is ours: the head crosses it in hopCycles, then takes
    // the leg's next link, or turns onto the Y leg, or has arrived.
    sim::Engine &engine = mesh_->engine_;
    const sim::Cycle hop = mesh_->cfg_.hopCycles;
    if (--left_ != 0) {
        link_ += stride_;
    } else if (yLeft_ != 0) {
        link_ = turn_;
        stride_ = yStride_;
        left_ = yLeft_;
        yLeft_ = 0;
    } else {
        engine.scheduleIn(hop, sim::Step<&Send::finish>{this});
        return;
    }
    engine.scheduleIn(hop, sim::Step<&Send::step>{this});
}

void
Mesh::Send::granted()
{
    // Hand-off of a held link: hold it until the tail crosses, then
    // move on.
    link_->holdUntil(mesh_->engine_.now() + flits_);
    advance();
}

void
Mesh::Send::finish()
{
    // Head arrived; the tail is flits-1 cycles behind. Single-flit
    // messages complete inside this event.
    if (!contended_)
        mesh_->stats_.fastpathHits.inc();
    if (flits_ > 1)
        mesh_->engine_.scheduleIn(flits_ - 1, sim::Step<&Send::deliver>{this});
    else
        deliver();
}

// ---- Tree multicast ------------------------------------------------------
//
// Each record is a branch (the hop into a router) and then that
// router's visit. The events, per visit: one delta-0 start per branch
// in E, W, N, S order, then the local tail's start when the router is
// a destination of a multi-flit message; per branch, the link grant
// if it queued, and the hop; per tail, its flits-1 delay; and one
// delta-0 wake once every branch and the tail are done. A visit with
// nothing to start is done inside the event that reached it.

Mesh::Multicast
Mesh::multicast(sim::NodeId src, std::span<const sim::NodeId> dsts,
                std::uint32_t bits)
{
    WISYNC_ASSERT(cfg_.treeMulticast,
                  "multicast needs the tree (Baseline+) router");
    return Multicast(*this, src, dsts, bits);
}

void
Mesh::Multicast::plan(sim::NodeId src, std::span<const sim::NodeId> dsts,
                      std::uint32_t bits)
{
    src_ = src;
    flits_ = mesh_->flitsOf(bits);
    dsts_.clear();
    dsts_.reserve(dsts.size());
    for (const auto d : dsts)
        dsts_.push_back(d);
}

bool
Mesh::post(Multicast &msg, sim::NodeId src,
           std::span<const sim::NodeId> dsts, std::uint32_t bits,
           void (*done)(void *), void *ctx)
{
    WISYNC_ASSERT(cfg_.treeMulticast,
                  "multicast needs the tree (Baseline+) router");
    msg.mesh_ = this;
    msg.plan(src, dsts, bits);
    return !msg.dsts_.empty() && msg.start(done, ctx);
}

bool
Mesh::Multicast::start(void (*done)(void *), void *ctx)
{
    Mesh &m = *mesh_;
    m.stats_.multicasts.inc();
    m.stats_.messages.inc();
    m.stats_.flits.inc(flits_);
    TreeHop &root = m.hops_.alloc();
    root = TreeHop{&m,     nullptr, done,   ctx, dsts_.begin(), dsts_.end(),
                   src_,   0,       flits_, 0};
    if (!root.fanOut())
        return true;
    m.hops_.free(root);
    return false;
}

bool
Mesh::TreeHop::fanOut()
{
    // Partition the visit's destinations in place by where each goes
    // next: [east | west | north | south | here].
    const std::uint32_t x = mesh->xOf(at), y = mesh->yOf(at);
    const Mesh &m = *mesh;
    sim::NodeId *cut[5] = {lo};
    cut[1] = std::partition(lo, hi,
                            [&](sim::NodeId d) { return m.xOf(d) > x; });
    cut[2] = std::partition(cut[1], hi,
                            [&](sim::NodeId d) { return m.xOf(d) < x; });
    cut[3] = std::partition(cut[2], hi,
                            [&](sim::NodeId d) { return m.yOf(d) < y; });
    cut[4] = std::partition(cut[3], hi,
                            [&](sim::NodeId d) { return m.yOf(d) > y; });
    static constexpr std::uint32_t kDirs[4] = {East, West, North, South};
    for (std::uint32_t g = 0; g < 4; ++g) {
        if (cut[g] == cut[g + 1])
            continue;
        TreeHop &b = mesh->hops_.alloc();
        b = TreeHop{mesh, this,     nullptr, nullptr, cut[g], cut[g + 1],
                    at,   kDirs[g], flits,   0};
        ++pending;
        mesh->engine_.scheduleIn(0, sim::Step<&TreeHop::start>{&b});
    }
    // Local delivery: the tail arrives flits-1 cycles behind the head,
    // overlapping the downstream branches.
    if (cut[4] != hi && flits > 1) {
        ++pending;
        mesh->engine_.scheduleIn(0, sim::Step<&TreeHop::tailStart>{this});
    }
    return pending == 0;
}

void
Mesh::TreeHop::start()
{
    // The branch holds its link until the tail crosses, as a timed
    // reservation: the release event exists only if another head
    // queues for it.
    coro::SimMutex &link = mesh->links_[at * 4 + dir];
    if (!link.tryLock()) {
        link.wait(&sim::Step<&TreeHop::granted>::call, this);
        return;
    }
    granted();
}

void
Mesh::TreeHop::granted()
{
    mesh->links_[at * 4 + dir].holdUntil(mesh->engine_.now() + flits);
    mesh->engine_.scheduleIn(mesh->cfg_.hopCycles,
                             sim::Step<&TreeHop::arrive>{this});
}

void
Mesh::TreeHop::arrive()
{
    at = mesh->neighbor(at, dir);
    if (fanOut())
        visited();
}

void
Mesh::TreeHop::tailStart()
{
    mesh->engine_.scheduleIn(flits - 1, sim::Step<&TreeHop::childDone>{this});
}

void
Mesh::TreeHop::childDone()
{
    if (--pending == 0)
        mesh->engine_.scheduleIn(0, sim::Step<&TreeHop::visited>{this});
}

void
Mesh::TreeHop::visited()
{
    TreeHop *up = parent;
    void (*const complete)(void *) = done;
    void *const with = ctx;
    mesh->hops_.free(*this);
    if (up != nullptr)
        up->childDone();
    else
        complete(with);
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
