#include "wireless/data_channel.hh"

#include <utility>

#include "sim/logging.hh"
#include "wireless/mac/mac_protocol.hh"

namespace wisync::wireless {

namespace {

/** Shared ctor/reset validation of the loss + burst knobs. */
void
validateLossConfig(const WirelessConfig &cfg)
{
    WISYNC_ASSERT(cfg.collisionCycles < cfg.dataCycles,
                  "collision penalty must be below full transfer time");
    WISYNC_ASSERT(cfg.lossPct >= 0.0 && cfg.lossPct <= 100.0,
                  "lossPct is a percentage");
    WISYNC_ASSERT(cfg.burst.goodLossPct >= 0.0 &&
                      cfg.burst.goodLossPct <= 100.0 &&
                      cfg.burst.badLossPct >= 0.0 &&
                      cfg.burst.badLossPct <= 100.0,
                  "burst state loss rates are percentages");
    WISYNC_ASSERT(cfg.burst.pGoodToBad >= 0.0 &&
                      cfg.burst.pGoodToBad <= 1.0 &&
                      cfg.burst.pBadToGood >= 0.0 &&
                      cfg.burst.pBadToGood <= 1.0,
                  "burst transition probabilities live in [0, 1]");
}

} // namespace

DataChannel::DataChannel(sim::Engine &engine, const WirelessConfig &cfg)
    : engine_(engine), cfg_(cfg)
{
    validateLossConfig(cfg_);
    lossEnabled_ = cfg_.lossPct > 0.0 || cfg_.burst.lossy();
}

void
DataChannel::reset(const WirelessConfig &cfg)
{
    validateLossConfig(cfg);
    cfg_ = cfg;
    nextFree_ = 0;
    openSlot_ = sim::kCycleMax;
    slotAttempts_.clear();
    dropData_.clear();
    dropBulk_.clear();
    burstStates_.clear();
    lossEnabled_ = cfg_.lossPct > 0.0 || cfg_.burst.lossy();
    stats_.reset();
}

void
DataChannel::setDropTable(std::vector<double> data, std::vector<double> bulk)
{
    dropData_ = std::move(data);
    dropBulk_ = std::move(bulk);
    lossEnabled_ =
        cfg_.lossPct > 0.0 || !dropData_.empty() || cfg_.burst.lossy();
}

double
DataChannel::dropProbability(sim::NodeId src, bool bulk) const
{
    // The uniform knob and the SNR-derived per-link rate are
    // independent corruption sources; survival probabilities multiply.
    double ok = 1.0 - cfg_.lossPct / 100.0;
    const auto &table = bulk ? dropBulk_ : dropData_;
    if (src < table.size())
        ok *= 1.0 - table[src];
    const double per = 1.0 - ok;
    return per < 0.0 ? 0.0 : (per > 1.0 ? 1.0 : per);
}

double
DataChannel::burstDropProbability(sim::NodeId src, bool bulk, sim::Rng &rng)
{
    // The Gilbert–Elliott chain replaces the uniform lossPct knob: its
    // per-state rate IS the "interference" corruption source. The
    // SNR-derived per-link rate is still an independent source, so the
    // survival probabilities multiply exactly as in dropProbability().
    if (burstStates_.size() <= src)
        burstStates_.resize(src + 1);
    double ok = 1.0 - burstStates_[src].step(cfg_.burst, rng);
    const auto &table = bulk ? dropBulk_ : dropData_;
    if (src < table.size())
        ok *= 1.0 - table[src];
    const double per = 1.0 - ok;
    return per < 0.0 ? 0.0 : (per > 1.0 ? 1.0 : per);
}

coro::Task<DataChannel::Outcome>
DataChannel::attempt(sim::NodeId src, bool bulk, sim::UniqueFunction &deliver,
                     const std::function<bool()> *abort, sim::Rng *rng)
{
    // A ready transceiver waits for the cycle the channel is next
    // expected to be free (§4.1); the horizon can move while waiting.
    while (engine_.now() < nextFree_)
        co_await coro::delay(engine_, nextFree_ - engine_.now());

    coro::Future<Outcome> done(engine_);
    Pending pending{bulk, &deliver, abort, &done, src, rng};
    if (openSlot_ != engine_.now()) {
        openSlot_ = engine_.now();
        slotAttempts_.clear();
        // Arbitrate after every same-cycle attempt has registered.
        engine_.scheduleIn(0, [this] { arbitrate(); });
    }
    slotAttempts_.push_back(&pending);
    co_return co_await done;
}

void
DataChannel::arbitrate()
{
    // Double-buffer the attempt list (both vectors keep their
    // capacity) and compact the abort survivors in place, so steady-
    // state arbitration is allocation-free.
    arbScratch_.clear();
    arbScratch_.swap(slotAttempts_);
    openSlot_ = sim::kCycleMax;
    if (arbScratch_.empty())
        return;

    // AFB semantics: a transmission whose abort predicate holds when
    // the write is attempted never reaches the air.
    std::size_t live = 0;
    for (Pending *p : arbScratch_) {
        if (p->abort && (*p->abort)())
            p->done->set(Outcome::Aborted);
        else
            arbScratch_[live++] = p;
    }
    arbScratch_.resize(live);
    if (arbScratch_.empty())
        return;

    if (arbScratch_.size() == 1) {
        Pending *p = arbScratch_.front();
        const std::uint32_t dur =
            p->bulk ? cfg_.bulkCycles : cfg_.dataCycles;
        nextFree_ = engine_.now() + dur;
        stats_.busyCycles.inc(dur);
        stats_.messages.inc();
        if (p->bulk)
            stats_.bulkMessages.inc();
        // Lossy channel: one Bernoulli draw from the transmitting
        // node's RNG stream decides whether the frame survives at
        // every receiver — a broadcast is all-or-nothing, so replicas
        // can never diverge. The slot is consumed either way; on a
        // drop no deliver runs and the sender learns of the loss when
        // its ack window expires. The ideal channel draws nothing.
        if (lossEnabled_ && p->rng != nullptr) {
            // Burst mode steps the transmitter's Gilbert–Elliott chain
            // first (one extra draw per transmission — deterministic,
            // from the same per-node stream), then performs the usual
            // drop Bernoulli against the composed probability.
            const double per =
                cfg_.burst.enabled
                    ? burstDropProbability(p->src, p->bulk, *p->rng)
                    : dropProbability(p->src, p->bulk);
            if (per > 0.0 && p->rng->chance(per)) {
                stats_.drops.inc();
                engine_.scheduleIn(
                    dur, [p] { p->done->set(Outcome::Dropped); });
                return;
            }
        }
        // Delivery happens at the end of the transmission: the deliver
        // callback is the total-order commit point for BM updates.
        engine_.scheduleIn(dur, [p] {
            if (*p->deliver)
                (*p->deliver)();
            p->done->set(Outcome::Delivered);
        });
        return;
    }

    // Two or more heads in the same slot: every transmitter aborts
    // after the listen cycle; the channel frees after 2 cycles. One
    // event per transmitter (rather than one owning the whole vector)
    // keeps each callback inside the event slot's inline buffer; the
    // per-attempt completion order matches the registration order.
    nextFree_ = engine_.now() + cfg_.collisionCycles;
    stats_.collisions.inc();
    stats_.busyCycles.inc(cfg_.collisionCycles);
    for (Pending *p : arbScratch_)
        engine_.scheduleIn(cfg_.collisionCycles,
                           [p] { p->done->set(Outcome::Collided); });
}

Mac::Mac(sim::Engine &engine, DataChannel &channel, MacProtocol &protocol,
         sim::NodeId node, sim::Rng rng)
    : engine_(engine), channel_(channel), protocol_(&protocol),
      node_(node), rng_(rng), order_(engine)
{}

void
Mac::reset(MacProtocol &protocol, sim::Rng rng)
{
    protocol_ = &protocol;
    rng_ = rng;
    order_.reset();
    retries_.reset();
}

coro::Task<bool>
Mac::ackTimeoutRetry(std::uint32_t drops)
{
    const WirelessConfig &cfg = channel_.config();
    if (drops > cfg.maxRetries) {
        // The retry budget is spent: wait out the final ack window
        // (the sender cannot know the frame was lost any earlier),
        // then surface the typed failure instead of retransmitting.
        protocol_->noteAckTimeout(cfg.ackTimeoutCycles);
        co_await coro::delay(engine_, cfg.ackTimeoutCycles);
        protocol_->noteGiveUp();
        co_return false;
    }
    // Ack window plus bounded exponential spacing before the
    // retransmission. Deterministic (no RNG): the packet-error draws
    // already decorrelate senders, and a fixed schedule keeps the
    // lossPct = 0 contract trivially intact.
    const std::uint32_t exp = drops < cfg.retryBackoffMaxExp
                                  ? drops
                                  : cfg.retryBackoffMaxExp;
    const sim::Cycle wait =
        cfg.ackTimeoutCycles + (sim::Cycle{1} << exp);
    protocol_->noteAckTimeout(wait);
    co_await coro::delay(engine_, wait);
    protocol_->noteRetransmit();
    co_return true;
}

coro::Task<SendOutcome>
Mac::send(bool bulk, sim::UniqueFunction deliver,
          const std::function<bool()> *abort)
{
    // A node's broadcasts are strictly ordered (§4.2.1: no subsequent
    // store proceeds until the current one performed).
    co_await order_.lock();
    const sim::Cycle first_attempt = engine_.now();
    std::uint32_t drops = 0;
    SendOutcome sent = SendOutcome::Aborted;
    for (;;) {
        co_await protocol_->acquire(node_);
        if (abort && (*abort)()) {
            // Cancelled before reaching the channel. The claim must
            // still be dropped: a granted token (or a fuzzy-token
            // contention grant picked up during the last collision)
            // would otherwise stall every queued sender.
            protocol_->release(node_, false);
            break;
        }
        const auto outcome =
            co_await channel_.attempt(node_, bulk, deliver, abort, &rng_);
        if (outcome == DataChannel::Outcome::Collided) {
            // The protocol drops the claim, updates contention state
            // and performs this node's backoff; then contend again.
            retries_.inc();
            co_await protocol_->onCollision(node_, rng_);
            continue;
        }
        if (outcome == DataChannel::Outcome::Dropped) {
            // The channel lost the frame. The claim is released like
            // a delivered send (the token must pass on) and the ack
            // window / bounded-retry machinery decides what follows.
            protocol_->release(node_, false);
            if (co_await ackTimeoutRetry(++drops))
                continue;
            sent = SendOutcome::GaveUp;
            break;
        }
        protocol_->release(node_,
                           outcome == DataChannel::Outcome::Delivered);
        if (outcome == DataChannel::Outcome::Delivered) {
            channel_.noteDelivery(first_attempt);
            sent = SendOutcome::Delivered;
        }
        break;
    }
    order_.unlock();
    co_return sent;
}

} // namespace wisync::wireless
