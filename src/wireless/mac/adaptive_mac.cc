#include "wireless/mac/adaptive_mac.hh"

#include "wireless/data_channel.hh"

namespace wisync::wireless {

AdaptiveMac::AdaptiveMac(sim::Engine &engine, DataChannel &channel,
                         std::uint32_t num_nodes)
    : MacProtocol(engine, channel, num_nodes),
      brs_(engine, channel, num_nodes, &st()),
      token_(engine, channel, num_nodes, &st()),
      grantedByToken_(num_nodes, 0)
{}

void
AdaptiveMac::reset()
{
    brs_.reset();
    token_.reset();
    tokenMode_ = false;
    grantedByToken_.assign(numNodes_, 0);
    windowEvents_ = 0;
    windowCollisions_ = 0;
    windowWaitsBase_ = 0;
    st().reset();
}

MacProtocol &
AdaptiveMac::sub(bool token_granted)
{
    return token_granted ? static_cast<MacProtocol &>(token_)
                         : static_cast<MacProtocol &>(brs_);
}

void
AdaptiveMac::note(bool collided)
{
    ++windowEvents_;
    if (collided)
        ++windowCollisions_;
    const std::uint32_t window = channel_.config().adaptWindowEvents;
    if (window == 0 || windowEvents_ < window)
        return;
    if (!tokenMode_) {
        // Collision fraction over the window: thrashing -> token ring.
        if (windowCollisions_ * 100 >=
            windowEvents_ * channel_.config().adaptHiPct) {
            tokenMode_ = true;
            st().modeSwitches.inc();
        }
    } else {
        // Demand over the window: few queued acquires -> random access.
        const std::uint64_t waits =
            st().tokenWaits.value() - windowWaitsBase_;
        if (waits * 100 <=
            static_cast<std::uint64_t>(windowEvents_) *
                channel_.config().adaptLoPct) {
            tokenMode_ = false;
            st().modeSwitches.inc();
        }
    }
    windowEvents_ = 0;
    windowCollisions_ = 0;
    windowWaitsBase_ = st().tokenWaits.value();
}

bool
AdaptiveMac::acquire(sim::NodeId node, MacWaiter &w)
{
    // Record the granting policy before any wait so a switch mid-wait
    // cannot strand the release on the wrong sub-state.
    const bool token = tokenMode_;
    grantedByToken_[node] = token ? 1 : 0;
    return sub(token).acquire(node, w);
}

void
AdaptiveMac::release(sim::NodeId node, bool delivered)
{
    sub(grantedByToken_[node] != 0).release(node, delivered);
    if (delivered)
        note(false);
}

bool
AdaptiveMac::onCollision(sim::NodeId node, sim::Rng &rng, MacWaiter &w)
{
    note(true);
    return sub(grantedByToken_[node] != 0).onCollision(node, rng, w);
}

} // namespace wisync::wireless
