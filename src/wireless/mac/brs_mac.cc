#include "wireless/mac/brs_mac.hh"

#include "wireless/data_channel.hh"

namespace wisync::wireless {

BrsMac::BrsMac(sim::Engine &engine, DataChannel &channel,
               std::uint32_t num_nodes, MacStats *shared_stats)
    : MacProtocol(engine, channel, num_nodes, shared_stats),
      backoffExp_(num_nodes, 0)
{}

void
BrsMac::reset()
{
    backoffExp_.assign(numNodes_, 0);
    st().reset();
}

bool
BrsMac::acquire(sim::NodeId node, MacWaiter &w)
{
    (void)node;
    (void)w;
    // Random access: contend right away.
    st().acquires.inc();
    return true;
}

void
BrsMac::release(sim::NodeId node, bool delivered)
{
    // An AFB abort leaves the window untouched: the instruction never
    // reached the air, so it observed no contention either way.
    if (delivered && backoffExp_[node] > 0)
        --backoffExp_[node];
}

bool
BrsMac::onCollision(sim::NodeId node, sim::Rng &rng, MacWaiter &w)
{
    // Exponential backoff over [0, 2^i - 1] (§5.3). The RNG is drawn
    // only when the window is non-empty — exactly the pre-refactor
    // sequence, which keeps BRS runs bit-identical. A zero draw goes
    // on at once.
    if (backoffExp_[node] < channel_.config().maxBackoffExp)
        ++backoffExp_[node];
    const std::uint64_t window =
        (std::uint64_t{1} << backoffExp_[node]) - 1;
    if (window == 0)
        return true;
    const sim::Cycle wait = rng.below(window + 1);
    st().backoffEvents.inc();
    st().backoffCycles.inc(wait);
    if (wait == 0)
        return true;
    resumeAfter(wait, w);
    return false;
}

} // namespace wisync::wireless
