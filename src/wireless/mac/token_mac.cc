#include "wireless/mac/token_mac.hh"

#include "sim/engine.hh"
#include "sim/logging.hh"
#include "wireless/data_channel.hh"
#include "wireless/rf_model.hh"

namespace wisync::wireless {

TokenMac::TokenMac(sim::Engine &engine, DataChannel &channel,
                   std::uint32_t num_nodes, MacStats *shared_stats)
    : MacProtocol(engine, channel, num_nodes, shared_stats),
      passCycles_(derivePassCycles()), queue_(engine, num_nodes, st())
{}

std::uint32_t
TokenMac::derivePassCycles() const
{
    // An explicit tokenPassCycles wins; 0 (the default) prices the
    // token frame through the RF channel occupancy: tokenFrameBits at
    // the WiSync transceiver's bandwidth — 1 cycle at the defaults,
    // i.e. exactly the legacy constant.
    const WirelessConfig &cfg = channel_.config();
    if (cfg.tokenPassCycles != 0)
        return cfg.tokenPassCycles;
    return RfScalingModel::frameCycles(
        cfg.tokenFrameBits, RfScalingModel::wisyncTransceiver22());
}

std::uint32_t
TokenMac::holdCycles() const
{
    return channel_.config().tokenHoldCycles;
}

void
TokenMac::reset()
{
    // The channel was reset first and may have been retimed.
    passCycles_ = derivePassCycles();
    owner_ = 0;
    granted_ = false;
    grantAt_ = 0;
    everGranted_ = false;
    queue_.reset();
    st().reset();
}

void
TokenMac::arrive(sim::NodeId node)
{
    owner_ = node;
    grantAt_ = engine_.now();
    everGranted_ = true;
}

bool
TokenMac::acquire(sim::NodeId node, MacWaiter &w)
{
    st().acquires.inc();
    if (granted_) {
        // Someone holds the token: queue for it.
        queue_.park(node, w);
        return false;
    }
    // Token parks at owner_; fetch it over the ring. granted_ is
    // claimed before the pass delay so same-cycle contenders queue
    // behind us deterministically.
    granted_ = true;
    const std::uint32_t hops = ringDist(owner_, node);
    if (hops == 0) {
        arrive(node);
        return true;
    }
    st().tokenRotations.inc(hops);
    // The parked token honours the previous grant's hold window just
    // like the queued path: it departs no earlier than grant +
    // tokenHoldCycles (the owner itself may re-claim inside its own
    // reservation, hops == 0).
    const sim::Cycle now = engine_.now();
    const sim::Cycle hold_end = everGranted_ ? grantAt_ + holdCycles() : now;
    const sim::Cycle depart = hold_end > now ? hold_end : now;
    const sim::Cycle wait =
        depart + static_cast<sim::Cycle>(hops) * passCycles_ - now;
    if (wait == 0) {
        arrive(node);
        return true;
    }
    struct Fetched
    {
        TokenMac *mac;
        MacWaiter *w;
        void
        operator()() const
        {
            mac->arrive(w->node);
            w->resume(*w);
        }
    };
    w.node = node;
    engine_.scheduleIn(wait, Fetched{this, &w});
    return false;
}

void
TokenMac::release(sim::NodeId node, bool delivered)
{
    (void)delivered; // aborted grants pass the token on all the same
    WISYNC_ASSERT(granted_, "token release without a grant");
    // Grant the nearest queued requester in ring order from the
    // releasing node — arrival order never matters.
    const sim::NodeId next =
        queue_.nextWanting((node + 1) % numNodes_, numNodes_ - 1);
    if (next == sim::kNoNode) {
        granted_ = false; // token parks here until the next request
        return;
    }
    const std::uint32_t hops = ringDist(node, next);
    st().tokenRotations.inc(hops);
    // The token departs at the later of send completion and the hold
    // window's end, then travels hops * tokenPassCycles.
    const sim::Cycle now = engine_.now();
    const sim::Cycle hold_end = grantAt_ + holdCycles();
    const sim::Cycle depart = hold_end > now ? hold_end : now;
    const sim::Cycle arrive_at =
        depart + static_cast<sim::Cycle>(hops) * passCycles_;
    engine_.scheduleIn(arrive_at - now, [this, next] {
        arrive(next);
        queue_.grant(next);
    });
}

bool
TokenMac::onCollision(sim::NodeId node, sim::Rng &rng, MacWaiter &w)
{
    (void)rng;
    (void)w;
    // Impossible under exclusive grants; reachable transiently under
    // AdaptiveMac when a random-access straggler collides with the
    // holder. Yield the token and re-enter through acquire().
    st().backoffEvents.inc();
    release(node, false);
    return true;
}

} // namespace wisync::wireless
