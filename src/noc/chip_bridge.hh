/**
 * @file
 * The inter-chip bridge: a serialized broadcast link between chips.
 *
 * Multi-chip machines commit every global-scope BM broadcast on the
 * transmitting chip first; the bridge then carries the update to the
 * other chips' replica groups. The model is a single shared broadcast
 * medium (a package-level waveguide / interposer bus): frames
 * serialize in FIFO order at a configurable width — serialization IS
 * the bridge's MAC, there is no contention loss — and each frame lands
 * on the remote chips one propagation latency after its last flit
 * leaves. Delivery runs a caller callback at the arrival instant, so
 * the BM layer can apply the update and fire AFB aborts in one atomic
 * simulation step, exactly like a Data-channel delivery. The callback
 * is a (fn, ctx) pair that borrows its context (the BM layer's pooled
 * frame), so the bridge owns nothing but its InFlight records, kept in
 * a sim::RecordPool.
 *
 * The link may be lossy: a package-level waveguide fails in bursts
 * (reflections / thermal episodes, Bandara et al.), so the loss draw
 * is a single Gilbert–Elliott chain over the shared medium (or an
 * i.i.d. lossPct), stepped once per serialization from the bridge's
 * own forked RNG stream. A dropped frame costs its serialization
 * cycles plus an ack window, then retransmits with bounded exponential
 * spacing — the Mac reliability contract. After maxRetries the bridge
 * gives up AND immediately re-issues the frame with a fresh retry
 * budget: a global BM update is never silently lost (the version
 * clocks make an arbitrarily late arrival safe — stale cross-chip
 * RMWs still abort via AFB). The ideal link (the default) draws
 * nothing and is byte-identical to the pre-loss bridge.
 */

#ifndef WISYNC_NOC_CHIP_BRIDGE_HH
#define WISYNC_NOC_CHIP_BRIDGE_HH

#include <cstdint>

#include "sim/engine.hh"
#include "sim/logging.hh"
#include "sim/record.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "wireless/burst.hh"

namespace wisync::noc {

/** Bridge link knobs. */
struct BridgeConfig
{
    /** Propagation latency, last flit out -> remote delivery, cycles.
     *  32 bits wide, so adding it to a simulated time cannot wrap. */
    std::uint32_t latencyCycles = 24;
    /** Serialization width: payload bits accepted per cycle. */
    std::uint32_t widthBits = 64;
    /** Fixed per-frame header (routing + word address + version). */
    std::uint32_t headerBits = 32;

    // ---- Lossy link + reliability (defaults: the ideal bridge) ----
    /** i.i.d. probability, percent, that a serialized frame is
     *  corrupted and must be retransmitted. */
    double lossPct = 0.0;
    /** Correlated loss: one Gilbert–Elliott chain over the shared
     *  medium replaces the i.i.d. draw when enabled. */
    wireless::BurstParams burst;
    /** Cycles the bridge waits for the missing remote ack before
     *  declaring a frame lost (32 bits, like latencyCycles). */
    std::uint32_t ackTimeoutCycles = 4;
    /** Retransmissions per frame before a give-up is recorded (the
     *  frame is then RE-ISSUED with a fresh budget, never dropped). */
    std::uint32_t maxRetries = 8;
    /** Cap on the bounded exponential retransmission backoff. */
    std::uint32_t retryBackoffMaxExp = 6;

    /** Field-wise equality (MachineConfig::operator== / fingerprint). */
    bool operator==(const BridgeConfig &) const = default;
};

/** Bridge statistics. */
struct BridgeStats
{
    sim::Counter frames;
    sim::Counter busyCycles;
    /** Cycles frames waited for the serializer behind earlier frames. */
    sim::Counter queueWaitCycles;
    /** Serializations corrupted by the lossy link. */
    sim::Counter drops;
    /** Ack windows expired (one per drop). */
    sim::Counter ackTimeouts;
    /** Retransmissions within a frame's retry budget. */
    sim::Counter retransmits;
    /** Retry budgets exhausted (each one triggers a re-issue). */
    sim::Counter giveUps;
    /** Frames re-issued with a fresh budget after a give-up. */
    sim::Counter reissues;

    void reset() { *this = {}; }
};

/** The shared inter-chip broadcast link (see file comment). */
class ChipBridge
{
  public:
    ChipBridge(sim::Engine &engine, const BridgeConfig &cfg)
        : engine_(engine), cfg_(cfg)
    {
        validate(cfg_);
    }

    /**
     * Ship a frame of @p payload_bits. Serialization starts when the
     * link frees (FIFO); deliver(@p ctx) runs at the remote arrival
     * instant, so @p ctx must live until then. Fire-and-forget: the
     * sender does not wait (the BM
     * store already committed locally; WCB semantics are chip-local).
     * On a lossy link delivery may come arbitrarily later (retries /
     * re-issues), but it always comes: no frame is silently lost.
     */
    void
    post(std::uint32_t payload_bits, void (*deliver)(void *), void *ctx)
    {
        stats_.frames.inc();
        InFlight *f = &flights_.alloc();
        f->bits = cfg_.headerBits + payload_bits;
        f->drops = 0;
        f->deliver = deliver;
        f->ctx = ctx;
        if (!lossy()) {
            // The ideal link: exactly the pre-loss event stream — one
            // serialization, one delivery event, zero RNG draws.
            serialize(f->bits);
            scheduleDelivery(f);
            return;
        }
        attempt(f);
    }

    /** First cycle a new frame could start serializing. */
    sim::Cycle nextFree() const { return nextFree_; }

    /** True when any frame can be corrupted. False costs nothing:
     *  zero RNG draws, the pre-loss event stream. */
    bool lossy() const { return cfg_.lossPct > 0.0 || cfg_.burst.lossy(); }

    /** The bridge's private RNG stream for the loss draws. BmSystem
     *  forks it from the machine seed after the per-node Mac streams
     *  (construction and every reset), so single-chip machines and
     *  ideal bridges never perturb any other component's draws. A
     *  lossy bridge must be given a stream before the first post(). */
    void setRng(sim::Rng rng) { rng_ = rng; }

    /** The Gilbert–Elliott state of the link (test/introspection). */
    bool burstBad() const { return burstState_.bad(); }

    /**
     * Drop-accounting invariant of the reliability layer: every drop
     * costs exactly one ack window and resolves to a retransmission
     * or a give-up. Holds whenever the link is quiescent (all posted
     * frames delivered) — assert it at end of run.
     */
    bool
    dropAccountingConsistent() const
    {
        return stats_.drops.value() == stats_.ackTimeouts.value() &&
               stats_.drops.value() ==
                   stats_.retransmits.value() + stats_.giveUps.value() &&
               stats_.giveUps.value() == stats_.reissues.value();
    }

    const BridgeStats &stats() const { return stats_; }
    const BridgeConfig &config() const { return cfg_; }

    /** Idle link, zero stats, optionally retimed. In-flight frames
     *  must already be gone (the engine reset dropped their events);
     *  their buffers return to the pool here. */
    void
    reset(const BridgeConfig &cfg)
    {
        validate(cfg);
        cfg_ = cfg;
        nextFree_ = 0;
        stats_.reset();
        burstState_.reset();
        flights_.reset();
    }

  private:
    /** One posted frame awaiting delivery. Steady-state posts reuse
     *  freed records, and every bridge event is a 16-byte [this, f]
     *  that fits its engine slot. */
    struct InFlight
    {
        std::uint32_t bits = 0;
        /** Drops charged against the current retry budget. */
        std::uint32_t drops = 0;
        void (*deliver)(void *) = nullptr;
        void *ctx = nullptr;
    };

    static void
    validate(const BridgeConfig &cfg)
    {
        WISYNC_ASSERT(cfg.lossPct >= 0.0 && cfg.lossPct <= 100.0,
                      "bridge lossPct is a percentage");
        WISYNC_ASSERT(cfg.burst.goodLossPct >= 0.0 &&
                          cfg.burst.goodLossPct <= 100.0 &&
                          cfg.burst.badLossPct >= 0.0 &&
                          cfg.burst.badLossPct <= 100.0,
                      "bridge burst state loss rates are percentages");
        WISYNC_ASSERT(cfg.burst.pGoodToBad >= 0.0 &&
                          cfg.burst.pGoodToBad <= 1.0 &&
                          cfg.burst.pBadToGood >= 0.0 &&
                          cfg.burst.pBadToGood <= 1.0,
                      "bridge burst transition probabilities in [0, 1]");
    }

    /**
     * One serialization attempt of @p f: occupy the link FIFO slot,
     * then draw the loss Bernoulli. A drop schedules the next attempt
     * after the ack window (+ bounded exponential backoff within the
     * budget; a give-up re-issues with a fresh budget instead of
     * losing the frame); a survival schedules the remote delivery.
     */
    void
    attempt(InFlight *f)
    {
        serialize(f->bits);
        const double per = cfg_.burst.enabled
                               ? burstState_.step(cfg_.burst, rng_)
                               : cfg_.lossPct / 100.0;
        if (per > 0.0 && rng_.chance(per)) {
            stats_.drops.inc();
            stats_.ackTimeouts.inc();
            ++f->drops;
            const bool giveup = f->drops > cfg_.maxRetries;
            sim::Cycle wait = cfg_.ackTimeoutCycles;
            if (!giveup) {
                const std::uint32_t exp =
                    f->drops < cfg_.retryBackoffMaxExp
                        ? f->drops
                        : cfg_.retryBackoffMaxExp;
                wait += sim::Cycle{1} << exp;
            }
            engine_.schedule(nextFree_ + wait, [this, f] {
                if (f->drops > cfg_.maxRetries) {
                    // Budget spent — but a global BM update must not
                    // vanish, so the frame re-enters with a fresh
                    // budget (the degradation mirror of BmSystem's
                    // GaveUp re-issue path).
                    stats_.giveUps.inc();
                    stats_.reissues.inc();
                    f->drops = 0;
                } else {
                    stats_.retransmits.inc();
                }
                attempt(f);
            });
            return;
        }
        scheduleDelivery(f);
    }

    /** Occupy the link FIFO for a frame of @p bits. */
    void
    serialize(std::uint32_t bits)
    {
        const sim::Cycle ser = (bits + cfg_.widthBits - 1) / cfg_.widthBits;
        const sim::Cycle now = engine_.now();
        const sim::Cycle start = nextFree_ > now ? nextFree_ : now;
        stats_.busyCycles.inc(ser);
        stats_.queueWaitCycles.inc(start - now);
        nextFree_ = start + ser;
    }

    /** The frame survived its last serialization: it lands one
     *  propagation latency after its tail leaves. */
    void
    scheduleDelivery(InFlight *f)
    {
        engine_.schedule(nextFree_ + cfg_.latencyCycles, [this, f] {
            f->deliver(f->ctx);
            flights_.free(*f);
        });
    }

    sim::Engine &engine_;
    BridgeConfig cfg_;
    sim::Cycle nextFree_ = 0;
    BridgeStats stats_;
    /** Loss-draw stream (setRng); untouched on an ideal link. */
    sim::Rng rng_;
    /** The shared medium's Gilbert–Elliott state (one per link). */
    wireless::BurstState burstState_;
    /** Frames posted and not yet delivered; reset() frees them all. */
    sim::RecordPool<InFlight> flights_;
};

} // namespace wisync::noc

#endif // WISYNC_NOC_CHIP_BRIDGE_HH
