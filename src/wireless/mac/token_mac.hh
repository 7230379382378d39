/**
 * @file
 * Deterministic round-robin token passing.
 *
 * A single token circulates the nodes in ascending ring order; only
 * the holder may contend for the Data channel, so transmissions never
 * collide (locked by tests/test_mac.cc). The token moves on demand:
 * an idle ring schedules no events (the token parks at its last
 * holder), a request from node B while the token parks at A costs
 * ringDist(A, B) * tokenPassCycles before B may transmit, and on
 * release the token departs no earlier than grant-time +
 * tokenHoldCycles (the per-grant channel reservation — the knob that
 * trades per-holder burst service against round-trip latency).
 *
 * Queued requesters are granted in ring order from the releasing
 * node, which makes the schedule independent of request arrival
 * order — the classic starvation-freedom argument for token rings
 * (cf. the token-based schemes in Abadal et al., "Medium Access
 * Control in Wireless Network-on-Chip: A Context Analysis").
 */

#ifndef WISYNC_WIRELESS_MAC_TOKEN_MAC_HH
#define WISYNC_WIRELESS_MAC_TOKEN_MAC_HH

#include <cstdint>

#include "wireless/mac/mac_protocol.hh"

namespace wisync::wireless {

class TokenMac : public MacProtocol
{
  public:
    TokenMac(sim::Engine &engine, DataChannel &channel,
             std::uint32_t num_nodes, MacStats *shared_stats = nullptr);

    MacKind kind() const override { return MacKind::Token; }
    bool acquire(sim::NodeId node, MacWaiter &w) override;
    void release(sim::NodeId node, bool delivered) override;
    bool onCollision(sim::NodeId node, sim::Rng &rng,
                     MacWaiter &w) override;
    void reset() override;

    /** Node the token currently sits at (or travels towards). */
    sim::NodeId owner() const { return owner_; }
    bool granted() const { return granted_; }
    /** Cycles the token takes per ring hop (see tokenPassCycles). */
    std::uint32_t passCycles() const { return passCycles_; }

  private:
    /** The passCycles() of the channel's current configuration. */
    std::uint32_t derivePassCycles() const;
    std::uint32_t holdCycles() const;
    /** The token reaches @p node, which may then transmit. */
    void arrive(sim::NodeId node);

    /** Fixed per configuration: set by the constructor and reset(). */
    std::uint32_t passCycles_;
    sim::NodeId owner_ = 0;
    /** A node holds (or is being handed) the grant. */
    bool granted_ = false;
    /** Cycle the current grant was issued (hold-window anchor). */
    sim::Cycle grantAt_ = 0;
    /** False until the first grant (no hold window before it). */
    bool everGranted_ = false;
    GrantQueue queue_;
};

} // namespace wisync::wireless

#endif // WISYNC_WIRELESS_MAC_TOKEN_MAC_HH
