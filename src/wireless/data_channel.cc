#include "wireless/data_channel.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/record.hh"
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
    arbScratch_.clear();
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

void
DataChannel::attempt(Attempt &a)
{
    // A ready transceiver waits for the cycle the channel is next
    // expected to be free (§4.1); the horizon can move while waiting,
    // so the wait ends in a fresh attempt.
    const sim::Cycle now = engine_.now();
    if (now < nextFree_) {
        struct Retry
        {
            DataChannel *ch;
            Attempt *a;
            void operator()() const { ch->attempt(*a); }
        };
        engine_.scheduleIn(nextFree_ - now, Retry{this, &a});
        return;
    }
    if (openSlot_ != now) {
        openSlot_ = now;
        slotAttempts_.clear();
        // Arbitrate after every same-cycle attempt has registered.
        engine_.scheduleIn(0, [this] { arbitrate(); });
    }
    slotAttempts_.push_back(&a);
}

void
DataChannel::resolve(Attempt &a, Outcome outcome)
{
    struct Wake
    {
        Attempt *a;
        void operator()() const { a->done(*a); }
    };
    a.outcome = outcome;
    engine_.scheduleIn(0, Wake{&a});
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

    // AFB semantics: a transmission whose abort test holds when
    // the write is attempted never reaches the air.
    std::size_t live = 0;
    for (Attempt *p : arbScratch_) {
        if (p->aborted())
            resolve(*p, Outcome::Aborted);
        else
            arbScratch_[live++] = p;
    }
    arbScratch_.resize(live);
    if (arbScratch_.empty())
        return;

    if (arbScratch_.size() == 1) {
        Attempt *p = arbScratch_.front();
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
                    dur, [this, p] { resolve(*p, Outcome::Dropped); });
                return;
            }
        }
        // Delivery happens at the end of the transmission: the deliver
        // callback is the total-order commit point for BM updates.
        engine_.scheduleIn(dur, [this, p] {
            p->deliver(p->deliverCtx);
            resolve(*p, Outcome::Delivered);
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
    for (Attempt *p : arbScratch_)
        engine_.scheduleIn(cfg_.collisionCycles,
                           [this, p] { resolve(*p, Outcome::Collided); });
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

Mac::Send::Send(Mac &mac, bool bulk, void (*deliver)(void *),
                void *deliver_ctx, bool (*abort)(void *), void *abort_ctx)
    : mac_(&mac)
{
    this->bulk = bulk;
    this->deliver = deliver;
    deliverCtx = deliver_ctx;
    this->abort = abort;
    abortCtx = abort_ctx;
    src = mac.node_;
    rng = &mac.rng_;
    done = &Send::attempted;
}

// The send's steps, each running in the event where the coroutine
// they replace resumed: the order-lock hand-off, the protocol's grant
// or backoff wake, the channel's outcome wake and the ack timer. A
// step that needs no wait runs inline, like the symmetric transfer
// it replaces.

bool
Mac::Send::await_suspend(std::coroutine_handle<> h)
{
    // A node's broadcasts are strictly ordered (§4.2.1: no subsequent
    // store proceeds until the current one performed).
    if (mac_->order_.tryLock())
        start();
    else
        mac_->order_.wait(&sim::Step<&Send::start>::call, this);
    if (done_)
        return false;
    caller_ = h;
    return true;
}

void
Mac::Send::start()
{
    firstAttempt_ = mac_->engine_.now();
    contend(*this);
}

void
Mac::Send::contend(MacWaiter &w)
{
    auto &s = static_cast<Send &>(w);
    s.resume = &Send::granted;
    if (s.mac_->protocol_->acquire(s.mac_->node_, s))
        granted(s);
}

void
Mac::Send::granted(MacWaiter &w)
{
    auto &s = static_cast<Send &>(w);
    Mac &mac = *s.mac_;
    if (s.aborted()) {
        // Cancelled before reaching the channel. The claim must still
        // be dropped: a granted token (or a fuzzy-token contention
        // grant picked up during the last collision) would otherwise
        // stall every queued sender.
        mac.protocol_->release(mac.node_, false);
        s.finish(SendOutcome::Aborted);
        return;
    }
    mac.channel_.attempt(s);
}

void
Mac::Send::attempted(DataChannel::Attempt &a)
{
    auto &s = static_cast<Send &>(a);
    Mac &mac = *s.mac_;
    switch (s.outcome) {
      case DataChannel::Outcome::Collided:
        // The protocol drops the claim, updates contention state and
        // performs this node's backoff; then contend again.
        mac.retries_.inc();
        s.resume = &Send::contend;
        if (mac.protocol_->onCollision(mac.node_, mac.rng_, s))
            contend(s);
        return;
      case DataChannel::Outcome::Dropped:
        // The channel lost the frame. The claim is released like a
        // delivered send (the token must pass on) and the ack window /
        // bounded-retry machinery decides what follows.
        mac.protocol_->release(mac.node_, false);
        s.ackTimeout();
        return;
      case DataChannel::Outcome::Delivered:
        mac.protocol_->release(mac.node_, true);
        mac.channel_.noteDelivery(s.firstAttempt_);
        s.finish(SendOutcome::Delivered);
        return;
      case DataChannel::Outcome::Aborted:
        mac.protocol_->release(mac.node_, false);
        s.finish(SendOutcome::Aborted);
        return;
    }
}

void
Mac::Send::ackTimeout()
{
    // The ack window of transmission drops_ expired: wait it out (plus
    // the bounded exponential backoff when a retransmission follows),
    // then retransmit, or give up once maxRetries is spent.
    const WirelessConfig &cfg = mac_->channel_.config();
    MacProtocol &protocol = *mac_->protocol_;
    sim::Engine &engine = mac_->engine_;
    if (++drops_ > cfg.maxRetries) {
        // The retry budget is spent: wait out the final ack window
        // (the sender cannot know the frame was lost any earlier),
        // then surface the typed failure instead of retransmitting.
        protocol.noteAckTimeout(cfg.ackTimeoutCycles);
        auto give_up = [this] {
            mac_->protocol_->noteGiveUp();
            finish(SendOutcome::GaveUp);
        };
        if (cfg.ackTimeoutCycles == 0)
            give_up();
        else
            engine.scheduleIn(cfg.ackTimeoutCycles, give_up);
        return;
    }
    // Ack window plus bounded exponential spacing before the
    // retransmission. Deterministic (no RNG): the packet-error draws
    // already decorrelate senders, and a fixed schedule keeps the
    // lossPct = 0 contract trivially intact.
    const std::uint32_t exp = drops_ < cfg.retryBackoffMaxExp
                                  ? drops_
                                  : cfg.retryBackoffMaxExp;
    const sim::Cycle wait = cfg.ackTimeoutCycles + (sim::Cycle{1} << exp);
    protocol.noteAckTimeout(wait);
    engine.scheduleIn(wait, [this] {
        mac_->protocol_->noteRetransmit();
        contend(*this);
    });
}

void
Mac::Send::finish(SendOutcome outcome)
{
    outcome_ = outcome;
    done_ = true;
    mac_->order_.unlock();
    if (caller_)
        caller_.resume();
}

} // namespace wisync::wireless
