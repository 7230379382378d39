#include "wireless/mac/mac_protocol.hh"

#include "sim/logging.hh"
#include "wireless/data_channel.hh"
#include "wireless/mac/adaptive_mac.hh"
#include "wireless/mac/brs_mac.hh"
#include "wireless/mac/fuzzy_token_mac.hh"
#include "wireless/mac/token_mac.hh"

namespace wisync::wireless {

const char *
toString(MacKind kind)
{
    switch (kind) {
      case MacKind::Brs:
        return "BRS";
      case MacKind::Token:
        return "Token";
      case MacKind::FuzzyToken:
        return "FuzzyToken";
      case MacKind::Adaptive:
        return "Adaptive";
    }
    return "?";
}

std::unique_ptr<MacProtocol>
makeMacProtocol(const WirelessConfig &cfg, sim::Engine &engine,
                DataChannel &channel, std::uint32_t num_nodes)
{
    switch (cfg.macKind) {
      case MacKind::Brs:
        return std::make_unique<BrsMac>(engine, channel, num_nodes);
      case MacKind::Token:
        return std::make_unique<TokenMac>(engine, channel, num_nodes);
      case MacKind::FuzzyToken:
        return std::make_unique<FuzzyTokenMac>(engine, channel,
                                               num_nodes);
      case MacKind::Adaptive:
        return std::make_unique<AdaptiveMac>(engine, channel, num_nodes);
    }
    WISYNC_FATAL("unknown MacKind");
    return nullptr;
}

} // namespace wisync::wireless
