#include "wireless/mac/mac_protocol.hh"

#include <algorithm>
#include <bit>
#include <utility>

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

GrantQueue::GrantQueue(sim::Engine &engine, std::uint32_t num_nodes,
                       MacStats &stats)
    : engine_(engine), stats_(stats), numNodes_(num_nodes),
      wanting_((num_nodes + 63) / 64, 0), parked_(num_nodes, nullptr)
{}

void
GrantQueue::park(sim::NodeId node, MacWaiter &w)
{
    WISYNC_ASSERT(!wanting(node), "one outstanding token request "
                                  "per node (Mac serializes sends)");
    wanting_[node >> 6] |= bit(node);
    stats_.tokenWaits.inc();
    w.node = node;
    w.since = engine_.now();
    parked_[node] = &w;
}

void
GrantQueue::grant(sim::NodeId node)
{
    struct Woken
    {
        GrantQueue *q;
        MacWaiter *w;
        void
        operator()() const
        {
            q->stats_.tokenWaitCycles.inc(q->engine_.now() - w->since);
            w->resume(*w);
        }
    };
    wanting_[node >> 6] &= ~bit(node);
    MacWaiter *w = std::exchange(parked_[node], nullptr);
    WISYNC_ASSERT(w != nullptr, "a token grant with no parked send");
    engine_.scheduleIn(0, Woken{this, w});
}

sim::NodeId
GrantQueue::firstIn(std::uint32_t lo, std::uint32_t hi) const
{
    while (lo < hi) {
        const std::uint64_t bits = wanting_[lo >> 6] >> (lo & 63);
        if (bits != 0) {
            const std::uint32_t n = lo + std::countr_zero(bits);
            return n < hi ? n : sim::kNoNode;
        }
        lo = (lo | 63) + 1;
    }
    return sim::kNoNode;
}

sim::NodeId
GrantQueue::nextWanting(sim::NodeId first, std::uint32_t count) const
{
    const std::uint32_t end = first + count;
    if (end <= numNodes_)
        return firstIn(first, end);
    const sim::NodeId n = firstIn(first, numNodes_);
    return n != sim::kNoNode ? n : firstIn(0, end - numNodes_);
}

void
GrantQueue::reset()
{
    std::fill(wanting_.begin(), wanting_.end(), 0);
    std::fill(parked_.begin(), parked_.end(), nullptr);
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
