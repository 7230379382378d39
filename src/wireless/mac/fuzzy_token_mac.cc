#include "wireless/mac/fuzzy_token_mac.hh"

#include "sim/engine.hh"
#include "wireless/data_channel.hh"

namespace wisync::wireless {

FuzzyTokenMac::FuzzyTokenMac(sim::Engine &engine, DataChannel &channel,
                             std::uint32_t num_nodes,
                             MacStats *shared_stats)
    : MacProtocol(engine, channel, num_nodes, shared_stats),
      queue_(engine, num_nodes, st())
{}

void
FuzzyTokenMac::reset()
{
    owner_ = 0;
    contended_ = false;
    holder_ = sim::kNoNode;
    grantPending_ = false;
    queue_.reset();
    st().reset();
}

bool
FuzzyTokenMac::acquire(sim::NodeId node, MacWaiter &w)
{
    (void)node;
    (void)w;
    // CSMA leg: contend immediately, token or not. Serialization only
    // kicks in once a collision proves there is contention.
    st().acquires.inc();
    return true;
}

void
FuzzyTokenMac::release(sim::NodeId node, bool delivered)
{
    if (delivered && node != owner_) {
        // The token follows the last successful sender. (A CSMA grab
        // can move it past a queued node — waiters are protected by
        // the resolver's holder-served-last scan, not by monotonic
        // ring distance.)
        st().fuzzyGrabs.inc();
        st().tokenRotations.inc(ringDist(owner_, node));
        owner_ = node;
    }
    if (node == holder_) {
        // The resolver's grantee finished; serve the next collider.
        holder_ = sim::kNoNode;
        if (contended_)
            scheduleGrant();
    }
}

bool
FuzzyTokenMac::onCollision(sim::NodeId node, sim::Rng &rng, MacWaiter &w)
{
    (void)rng; // deterministic resolution — the ring is the arbiter
    st().backoffEvents.inc();
    // Materialize the token: queue until the resolver grants us the
    // channel. A failed grantee re-queues like everyone else.
    if (node == holder_)
        holder_ = sim::kNoNode;
    contended_ = true;
    queue_.park(node, w);
    if (holder_ == sim::kNoNode)
        scheduleGrant();
    return false;
}

void
FuzzyTokenMac::scheduleGrant()
{
    if (grantPending_)
        return;
    grantPending_ = true;
    // Granted at the end of the current cycle so every same-slot
    // collider has queued before the ring is scanned.
    engine_.scheduleIn(0, [this] { grantNext(); });
}

void
FuzzyTokenMac::grantNext()
{
    grantPending_ = false;
    if (holder_ != sim::kNoNode)
        return;
    // Nearest queued collider in ring order from the priority holder,
    // the holder itself last (d == numNodes_ wraps to owner_): a node
    // streaming back-to-back sends keeps colliding its way into the
    // queue, and serving it first would starve every other waiter —
    // served last, the ring guarantees each queued node one grant per
    // resolution round.
    const sim::NodeId cand =
        queue_.nextWanting((owner_ + 1) % numNodes_, numNodes_);
    if (cand == sim::kNoNode) {
        contended_ = false; // queue drained: the token evaporates
        return;
    }
    const std::uint32_t d = ringDist(owner_, cand);
    holder_ = cand;
    st().tokenRotations.inc(d == 0 ? numNodes_ : d);
    queue_.grant(cand);
}

} // namespace wisync::wireless
