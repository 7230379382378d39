/**
 * @file
 * The paper's §5.3 Broadcast Reliability Scheme as a MacProtocol.
 *
 * Pure random access: every ready sender contends immediately; a
 * collision backs the sender off uniformly over [0, 2^i - 1], where
 * the per-node exponent i is incremented on collision (saturating at
 * WirelessConfig::maxBackoffExp) and decremented on success.
 *
 * This is the pre-refactor hard-coded MAC moved behind the interface,
 * behavior-preserved: with MacKind::Brs the simulation is bit-identical
 * to the original (locked by the golden tests in tests/test_mac.cc).
 */

#ifndef WISYNC_WIRELESS_MAC_BRS_MAC_HH
#define WISYNC_WIRELESS_MAC_BRS_MAC_HH

#include <cstdint>
#include <vector>

#include "wireless/mac/mac_protocol.hh"

namespace wisync::wireless {

class BrsMac : public MacProtocol
{
  public:
    BrsMac(sim::Engine &engine, DataChannel &channel,
           std::uint32_t num_nodes, MacStats *shared_stats = nullptr);

    MacKind kind() const override { return MacKind::Brs; }
    bool acquire(sim::NodeId node, MacWaiter &w) override;
    void release(sim::NodeId node, bool delivered) override;
    bool onCollision(sim::NodeId node, sim::Rng &rng,
                     MacWaiter &w) override;
    void reset() override;

    /** Current backoff-window exponent of @p node. */
    std::uint32_t backoffExp(sim::NodeId node) const
    {
        return backoffExp_[node];
    }

  private:
    std::vector<std::uint32_t> backoffExp_;
};

} // namespace wisync::wireless

#endif // WISYNC_WIRELESS_MAC_BRS_MAC_HH
