/**
 * @file
 * The shared wireless Data channel (paper §4.1).
 *
 * One 19 GHz-wide channel centred at 60 GHz, time-slotted in 1 ns
 * (= 1 cycle) slots. A 77-bit message (64-bit datum + 11-bit address +
 * Bulk bit + Tone bit) transfers in 5 cycles; cycle 2 is the collision
 * listen slot, so a collision costs only 2 cycles before the channel
 * frees. Bulk messages carry 4 words in 15 cycles (the 3 trailing
 * words skip the collision check and headers).
 *
 * Arbitration matches the paper: a transceiver that becomes ready
 * while the channel is busy waits until the cycle the channel is next
 * expected to be free and transmits then — so bursts of ready senders
 * collide, and the MAC protocol (wireless/mac/) resolves the
 * contention: exponential backoff (§5.3 BRS, the paper's scheme and
 * the default), token passing, a fuzzy-token hybrid, or adaptive
 * switching, selected by WirelessConfig::macKind.
 *
 * Nothing below a broadcast owns a coroutine frame. Mac::send returns
 * the Mac::Send awaitable, which runs the order-lock, acquire,
 * attempt, backoff and ack-timeout loop as callbacks and keeps all of
 * its state in the awaiting frame; DataChannel::attempt registers the
 * Attempt it holds and resolves it with one delta-0 wake event. Every
 * step runs at the (cycle, seq) where the coroutine it replaced
 * resumed, so the event stream is the coroutine chain's.
 *
 * An attempt's two hooks, the delivery commit and the abort test, are
 * (fn, ctx) pairs that borrow their context: Mac::send points the
 * delivery at the callable it is handed, which lives in the awaiting
 * frame until the co_await statement ends, and the abort test's
 * context (a pending RMW, a tone announcement's watch) outlives the
 * send.
 */

#ifndef WISYNC_WIRELESS_DATA_CHANNEL_HH
#define WISYNC_WIRELESS_DATA_CHANNEL_HH

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "coro/primitives.hh"
#include "sim/engine.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "wireless/burst.hh"
#include "wireless/mac/mac_kind.hh"
#include "wireless/mac/mac_protocol.hh"

namespace wisync::wireless {

/** Data-channel frame sizes (§4.1): a 77-bit message (64-bit datum +
 *  11-bit address + Bulk + Tone bits), and a Bulk frame carrying 3
 *  further words. Used to price frames in the RF channel model. */
constexpr std::uint32_t kDataFrameBits = 77;
constexpr std::uint32_t kBulkFrameBits = 77 + 3 * 64;

/** Wireless timing knobs (Table 1 defaults) + MAC selection. */
struct WirelessConfig
{
    /** Cycles to transmit an ordinary 77-bit message. */
    std::uint32_t dataCycles = 5;
    /** Cycles to transmit a 4-word Bulk message. */
    std::uint32_t bulkCycles = 15;
    /** Channel-busy cycles consumed by a collision (below dataCycles;
     *  MachineConfig::validate checks it). */
    std::uint32_t collisionCycles = 2;

    // ---- Lossy channel model + reliability layer ------------------
    // lossPct = 0 and berFromSnr = false (the defaults) keep the ideal
    // channel: no RNG draws, no retry machinery, byte-identical event
    // streams to a build without the loss layer.
    /** Uniform probability, percent, that a broadcast is corrupted at
     *  some receiver and must be retransmitted. */
    double lossPct = 0.0;
    /** Derive per-transmitter loss from the RF channel model
     *  (distance -> path loss -> SNR -> BER) instead of, or on top
     *  of, the uniform lossPct (BmSystem installs the drop table). */
    bool berFromSnr = false;
    /** Transmit power for the SNR -> BER derivation, dBm. */
    double txPowerDbm = 10.0;
    /** Cycles a sender waits for the missing ack before declaring a
     *  transmission lost. */
    std::uint32_t ackTimeoutCycles = 4;
    /** Retransmissions per send before the MAC gives up and surfaces
     *  a typed delivery failure (SendOutcome::GaveUp). */
    std::uint32_t maxRetries = 8;
    /** Cap on the bounded exponential retransmission backoff: the
     *  i-th retry waits min(2^i, 2^retryBackoffMaxExp) extra cycles. */
    std::uint32_t retryBackoffMaxExp = 6;
    /** Correlated (bursty) loss: a per-transmitter Gilbert–Elliott
     *  chain replaces the i.i.d. lossPct draw when enabled. The
     *  SNR-derived drop table still composes on top. Disabled (the
     *  default) draws nothing — byte-identical to the i.i.d. model. */
    BurstParams burst;
    /** Per-frequency-channel loss profile: extra attenuation folded
     *  into every link of spectrum slot s, channelLossBaseDb +
     *  s * channelLossStepDb (carriers at different frequencies see
     *  different path loss). Applied through the RF channel model, so
     *  it requires berFromSnr; 0 keeps all slots identical. */
    double channelLossBaseDb = 0.0;
    double channelLossStepDb = 0.0;

    /** Multi-chip: spectrum slots the FrequencyPlan may hand out.
     *  Chips sharing a slot share one channel + MAC arbitration
     *  domain; with >= numChips slots every chip's channel is
     *  private. Ignored on single-chip machines. */
    std::uint32_t spectrumSlots = 4;

    /** Which MAC protocol arbitrates the channel (default: §5.3 BRS). */
    MacKind macKind = MacKind::Brs;
    /** BRS: maximum exponential-backoff exponent (window = 2^i - 1). */
    std::uint32_t maxBackoffExp = 10;
    /** Token/fuzzy: per-ring-hop token pass latency, cycles; 0 means
     *  "price it through the RF channel model" — a tokenFrameBits
     *  control frame at the WiSync transceiver's bandwidth, which is
     *  1 cycle at the defaults (the legacy constant). */
    std::uint32_t tokenPassCycles = 0;
    /** Token-family control frame size, bits (tokenPassCycles = 0). */
    std::uint32_t tokenFrameBits = 16;
    /** Token: minimum channel reservation per grant, cycles. */
    std::uint32_t tokenHoldCycles = 0;
    /** Adaptive: channel events per policy-observation window. */
    std::uint32_t adaptWindowEvents = 32;
    /** Adaptive: switch BRS->token at >= this collision percentage. */
    std::uint32_t adaptHiPct = 25;
    /** Adaptive: switch token->BRS at <= this token-wait percentage. */
    std::uint32_t adaptLoPct = 25;

    /** Field-wise equality (MachineConfig::operator== / fingerprint). */
    bool operator==(const WirelessConfig &) const = default;
};

/** Channel-level statistics. */
struct DataChannelStats
{
    sim::Counter messages;
    sim::Counter bulkMessages;
    sim::Counter collisions;
    /** Transmissions corrupted by the lossy channel model (the slot
     *  is consumed, no node delivers, the sender's ack times out). */
    sim::Counter drops;
    /** Cycles the channel spent transmitting or recovering. */
    sim::Counter busyCycles;
    /** Latency from first attempt to delivery, per message. */
    sim::Accumulator deliveryLatency;

    /** Zero everything (assignment cannot miss a late-added field). */
    void reset() { *this = {}; }
};

/**
 * The single shared Data channel.
 *
 * transmit() resolves when this sender's message has been delivered
 * to every node; the caller-provided deliver callback runs exactly at
 * the delivery instant (used by the BM layer to update all replicas
 * in one atomic simulation step, giving the chip-wide total order of
 * BM writes).
 */
class DataChannel
{
  public:
    DataChannel(sim::Engine &engine, const WirelessConfig &cfg);

    /** Outcome of one slot attempt. */
    enum class Outcome
    {
        Delivered,
        Collided,
        /** Abort predicate fired when the transmit slot was won. */
        Aborted,
        /** Won the slot but the lossy channel corrupted the frame:
         *  deliver never ran; the sender's ack window will expire. */
        Dropped,
    };

    /**
     * One contender for a transmit slot. It lives in the sender (a
     * Mac::Send, in the broadcasting frame); the channel keeps a
     * pointer to it until done runs.
     */
    struct Attempt
    {
        bool bulk = false;
        /** deliver(deliverCtx) runs at the delivery instant. */
        void (*deliver)(void *) = nullptr;
        void *deliverCtx = nullptr;
        /** abort(abortCtx), if set, cancels the attempt when true. */
        bool (*abort)(void *) = nullptr;
        void *abortCtx = nullptr;
        /** Transmitting node (drop-table lookup under loss). */
        sim::NodeId src = 0;
        /** Transmitter's RNG stream for the packet-error draw; only
         *  consulted when the channel is lossy. */
        sim::Rng *rng = nullptr;
        /** Set when the attempt resolves, before done runs. */
        Outcome outcome = Outcome::Delivered;
        /** Called in a delta-0 wake event after the outcome. */
        void (*done)(Attempt &) = nullptr;

        /** The abort test, made when the slot is won. */
        bool aborted() const { return abort != nullptr && abort(abortCtx); }
    };

    /**
     * Try once: contend for the next free slot, then either transmit
     * fully (running a.deliver at the delivery instant), collide, or
     * abort (the a.abort test is evaluated at arbitration time,
     * i.e. "when the write is attempted" — the paper's AFB semantics).
     * Under a lossy channel (@see lossy()) a won slot may instead be
     * Dropped, decided by one Bernoulli draw from a.rng — the
     * transmitting node's stream, so runs stay bit-reproducible. The
     * MAC layers retries/backoff/ack-timeouts on top of this.
     *
     * Never finishes inside this call: a.done(a) runs from an event,
     * with a.outcome set.
     */
    void attempt(Attempt &a);

    /** Record a successful send that first contended at @p started. */
    void
    noteDelivery(sim::Cycle started)
    {
        stats_.deliveryLatency.sample(
            static_cast<double>(engine_.now() - started));
    }

    const DataChannelStats &stats() const { return stats_; }
    const WirelessConfig &config() const { return cfg_; }

    // ---- Lossy channel model --------------------------------------

    /**
     * Install per-transmitter broadcast packet-error rates derived
     * from the RF channel model (index = transmitting node; one table
     * per frame size). Combined independently with the uniform
     * lossPct; empty tables revert to lossPct alone. BmSystem owns
     * the RfChannelModel and calls this when berFromSnr is set.
     */
    void setDropTable(std::vector<double> data, std::vector<double> bulk);

    /** True when any transmission can be lost (a positive lossPct or
     *  an installed drop table). False costs nothing: zero RNG draws,
     *  an event stream identical to the pre-loss simulator. */
    bool lossy() const { return lossEnabled_; }

    /** Probability a broadcast from @p src fails to reach every node
     *  under the i.i.d. model (lossPct x SNR drop table). */
    double dropProbability(sim::NodeId src, bool bulk) const;

    /** The Gilbert–Elliott state of transmitter @p src (Good until its
     *  first burst-mode transmission). Test/introspection hook. */
    bool
    burstBad(sim::NodeId src) const
    {
        return src < burstStates_.size() && burstStates_[src].bad();
    }

    /** Utilisation bookkeeping: total busy cycles / elapsed cycles. */
    double
    utilisation() const
    {
        const auto now = engine_.now();
        return now == 0 ? 0.0
                        : static_cast<double>(stats_.busyCycles.value()) /
                              static_cast<double>(now);
    }

    /**
     * Idle channel, zero stats, optionally retimed via @p cfg. Pending
     * attempts must already be gone (the frames holding them destroyed
     * by the engine reset that precedes this in Machine::reset); the
     * channel forgets its pointers to them.
     */
    void reset(const WirelessConfig &cfg);

  private:
    void arbitrate();
    /** Resolve @p a: set its outcome, file its delta-0 wake. */
    void resolve(Attempt &a, Outcome outcome);

    /** Burst mode: step @p src's chain from @p rng and compose the
     *  per-state rate with the SNR drop table for this transmission. */
    double burstDropProbability(sim::NodeId src, bool bulk,
                                sim::Rng &rng);

    sim::Engine &engine_;
    WirelessConfig cfg_;
    sim::Cycle nextFree_ = 0;
    /** Cycle of the slot currently collecting attempts (or kCycleMax). */
    sim::Cycle openSlot_ = sim::kCycleMax;
    std::vector<Attempt *> slotAttempts_;
    /** Double buffer for arbitrate(): both keep their capacity, so
     *  steady-state arbitration never touches the allocator. */
    std::vector<Attempt *> arbScratch_;
    /** Per-tx SNR-derived packet-error rates (empty: uniform only). */
    std::vector<double> dropData_;
    std::vector<double> dropBulk_;
    /** Per-transmitter Gilbert–Elliott states, grown on first use;
     *  untouched (and empty) unless cfg_.burst.enabled. */
    std::vector<BurstState> burstStates_;
    bool lossEnabled_ = false;
    DataChannelStats stats_;
};

/**
 * How one Mac::send ended. GaveUp is the typed delivery failure of
 * the reliability layer: the channel lost the frame maxRetries + 1
 * times and the sender stopped — the broadcast never happened (no
 * replica changed), and the caller must re-issue or abort (BmSystem
 * maps it onto the AFB/software-retry contract).
 */
enum class SendOutcome
{
    Delivered,
    /** AFB abort predicate fired; nothing was broadcast. */
    Aborted,
    /** Lossy channel: exceeded maxRetries; nothing was broadcast. */
    GaveUp,
};

/**
 * Per-node Medium Access front-end.
 *
 * Serializes the node's broadcasts (§4.2.1: no subsequent store
 * proceeds until the current one performed) and drives the channel's
 * shared MacProtocol through its acquire / release / onCollision
 * hooks; the protocol decides when this node may contend and how
 * collisions resolve (wireless/mac/).
 */
class Mac
{
  public:
    /**
     * One broadcast in flight, frameless: the order-lock, acquire,
     * attempt, backoff and ack-timeout loop runs as a chain of
     * callbacks, and every piece of its state (the delivery and abort
     * hooks, the channel attempt, the protocol waiter) lives here, in
     * the awaiting frame. So it must be awaited exactly once, in the
     * statement that created it.
     */
    class [[nodiscard]] Send : private MacWaiter,
                               private DataChannel::Attempt
    {
      public:
        Send(Mac &mac, bool bulk, void (*deliver)(void *),
             void *deliver_ctx, bool (*abort)(void *), void *abort_ctx);
        Send(const Send &) = delete;
        Send &operator=(const Send &) = delete;

        bool await_ready() const noexcept { return false; }
        /** False when the send ends inside this call (its abort
         *  predicate held when the node was first granted). */
        bool await_suspend(std::coroutine_handle<> h);
        SendOutcome await_resume() const noexcept { return outcome_; }

      private:
        /** The order lock is ours (inline, or its hand-off). */
        void start();
        static void contend(MacWaiter &w);
        static void granted(MacWaiter &w);
        static void attempted(DataChannel::Attempt &a);
        void ackTimeout();
        void finish(SendOutcome outcome);

        Mac *mac_;
        std::coroutine_handle<> caller_;
        sim::Cycle firstAttempt_ = 0;
        std::uint32_t drops_ = 0;
        SendOutcome outcome_ = SendOutcome::Aborted;
        bool done_ = false;
    };

    Mac(sim::Engine &engine, DataChannel &channel, MacProtocol &protocol,
        sim::NodeId node, sim::Rng rng);

    /**
     * Broadcast one message, retrying through collisions until it is
     * delivered. @p deliver runs at the delivery instant (total-order
     * commit point); the send borrows it, so it must live until the
     * co_await statement ends (a temporary in that statement does).
     * @p abort, if non-null and abort(abort_ctx) holds when a slot is
     * won, cancels the transmission (used for RMW atomicity failure:
     * the instruction "neither broadcasts its value nor updates the
     * local BM").
     *
     * Under a lossy channel each corrupted transmission costs an ack
     * timeout plus a bounded exponential backoff before the
     * retransmission; after maxRetries retransmissions the send
     * returns SendOutcome::GaveUp instead of hanging. On the ideal
     * channel the result is always Delivered or Aborted.
     */
    template <typename F>
    Send
    send(bool bulk, F &&deliver, bool (*abort)(void *) = nullptr,
         void *abort_ctx = nullptr)
    {
        using D = std::remove_reference_t<F>;
        return Send(
            *this, bulk, [](void *d) { (*static_cast<D *>(d))(); },
            std::addressof(deliver), abort, abort_ctx);
    }

    sim::NodeId node() const { return node_; }
    std::uint64_t retries() const { return retries_.value(); }

    /**
     * Fresh RNG stream, rebound to @p protocol (which BmSystem::reset
     * may have rebuilt under a new MacKind); the order mutex is freed.
     */
    void reset(MacProtocol &protocol, sim::Rng rng);

  private:
    sim::Engine &engine_;
    DataChannel &channel_;
    MacProtocol *protocol_;
    sim::NodeId node_;
    sim::Rng rng_;
    coro::SimMutex order_;
    sim::Counter retries_;
};

} // namespace wisync::wireless

#endif // WISYNC_WIRELESS_DATA_CHANNEL_HH
