/**
 * @file
 * Traffic-aware MAC: per-window BRS <-> token switching.
 *
 * Follows the adaptive-switching idea of Mansoor et al. ("A
 * Traffic-Aware Medium Access Control Mechanism for Energy-Efficient
 * Wireless Network-on-Chip Architectures"): random access wins under
 * light load, token passing wins under bursty synchronization storms,
 * so the controller observes fixed-size windows of channel events and
 * switches policy at window boundaries.
 *
 *  - In BRS mode the signal is the collision fraction: >= adaptHiPct
 *    percent of window events colliding means the channel is
 *    thrashing — switch to the token ring.
 *  - In token mode collisions are (by construction) absent, so the
 *    signal is demand: when <= adaptLoPct percent of the window's
 *    acquires had to queue for the token, traffic is light again —
 *    switch back to random access.
 *
 * Both sub-policies are real BrsMac/TokenMac instances sharing this
 * object's stats block; every send records which policy granted it so
 * releases and collision handling route to the right state even
 * across a switch (in-flight token grants drain through the token
 * ring while new sends already contend randomly, and vice versa).
 */

#ifndef WISYNC_WIRELESS_MAC_ADAPTIVE_MAC_HH
#define WISYNC_WIRELESS_MAC_ADAPTIVE_MAC_HH

#include <cstdint>
#include <vector>

#include "wireless/mac/brs_mac.hh"
#include "wireless/mac/token_mac.hh"

namespace wisync::wireless {

class AdaptiveMac : public MacProtocol
{
  public:
    AdaptiveMac(sim::Engine &engine, DataChannel &channel,
                std::uint32_t num_nodes);

    MacKind kind() const override { return MacKind::Adaptive; }

    bool acquire(sim::NodeId node, MacWaiter &w) override;
    void release(sim::NodeId node, bool delivered) override;
    bool onCollision(sim::NodeId node, sim::Rng &rng,
                     MacWaiter &w) override;
    void reset() override;

    /** True while the token ring is the active policy. */
    bool tokenMode() const { return tokenMode_; }

  private:
    MacProtocol &sub(bool token_granted);
    void note(bool collided);

    BrsMac brs_;
    TokenMac token_;
    bool tokenMode_ = false;
    /** Policy that granted each node's in-flight send. */
    std::vector<std::uint8_t> grantedByToken_;
    std::uint32_t windowEvents_ = 0;
    std::uint32_t windowCollisions_ = 0;
    std::uint64_t windowWaitsBase_ = 0;
};

} // namespace wisync::wireless

#endif // WISYNC_WIRELESS_MAC_ADAPTIVE_MAC_HH
