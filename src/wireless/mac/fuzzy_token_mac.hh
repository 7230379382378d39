/**
 * @file
 * Fuzzy token passing: a token/CSMA hybrid.
 *
 * While the channel is uncontended the token is immaterial: any ready
 * sender transmits immediately (pure CSMA — the channel's
 * expected-free wait models carrier sensing), so light traffic pays
 * zero token latency. The token *materializes* on a collision: every
 * collider queues with the protocol, which grants them the channel
 * one at a time in ring order from the current holder, the holder
 * itself served last — deterministic, RNG-free, and fair: a node
 * streaming back-to-back sends cannot be re-granted ahead of any
 * queued waiter. When the contention queue drains the token
 * evaporates and the channel falls back to CSMA.
 *
 * Compared to TokenMac this removes all rotation latency from the
 * uncontended path; compared to BRS it replaces random backoff with
 * ring-ordered arbitration, so a storm resolves in one pass instead
 * of thrashing through a backoff search.
 */

#ifndef WISYNC_WIRELESS_MAC_FUZZY_TOKEN_MAC_HH
#define WISYNC_WIRELESS_MAC_FUZZY_TOKEN_MAC_HH

#include <cstdint>

#include "wireless/mac/mac_protocol.hh"

namespace wisync::wireless {

class FuzzyTokenMac : public MacProtocol
{
  public:
    FuzzyTokenMac(sim::Engine &engine, DataChannel &channel,
                  std::uint32_t num_nodes,
                  MacStats *shared_stats = nullptr);

    MacKind kind() const override { return MacKind::FuzzyToken; }
    bool acquire(sim::NodeId node, MacWaiter &w) override;
    void release(sim::NodeId node, bool delivered) override;
    bool onCollision(sim::NodeId node, sim::Rng &rng,
                     MacWaiter &w) override;
    void reset() override;

    /** Node currently holding retry priority (last successful sender). */
    sim::NodeId owner() const { return owner_; }
    /** True while the materialized token serializes colliders. */
    bool contended() const { return contended_; }

  private:
    void scheduleGrant();
    void grantNext();

    sim::NodeId owner_ = 0;
    /** Collision resolution active (the token is materialized). */
    bool contended_ = false;
    /** Node currently granted by the resolver (kNoNode if none). */
    sim::NodeId holder_ = sim::kNoNode;
    bool grantPending_ = false;
    /** The colliders waiting for the resolver's grant. */
    GrantQueue queue_;
};

} // namespace wisync::wireless

#endif // WISYNC_WIRELESS_MAC_FUZZY_TOKEN_MAC_HH
