/**
 * @file
 * The Tone channel and its barrier tables (paper §4.2.2, §5.1).
 *
 * A second, 1 GHz-wide channel at 90 GHz carries only tones (1 bit per
 * 1 ns slot). It executes AND-barriers almost for free: the first
 * arrival announces the barrier with a Tone-bit message on the Data
 * channel; every armed node then jams a continuous tone; each node
 * drops its tone when its core arrives; when the channel falls silent
 * the barrier is complete and every node toggles the barrier's BM word
 * (a hardware sense-reversing barrier).
 *
 * Multiple concurrent tone barriers time-multiplex the channel: slots
 * are assigned round-robin over the *active* barriers (the ActiveB
 * table), so silence for barrier B is detectable only on B's slots.
 *
 * The AllocB/ActiveB tables are physically replicated per node and
 * kept identical chip-wide by construction (they are only mutated by
 * broadcast events). This model therefore stores them centrally, with
 * the per-node Armed/Arrived bits kept inside each entry — exactly
 * the state the paper describes. A release reaches its owner (the BM
 * controller, which toggles the barrier word) through a plain
 * (fn, ctx) handler that borrows its context.
 */

#ifndef WISYNC_WIRELESS_TONE_CHANNEL_HH
#define WISYNC_WIRELESS_TONE_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "sim/engine.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wisync::wireless {

/** Tone-channel statistics. */
struct ToneChannelStats
{
    sim::Counter releases;
    sim::Counter slotCycles;
    sim::Counter activations;
    sim::Accumulator concurrentActive;

    /** Zero everything (assignment cannot miss a late-added field). */
    void reset() { *this = {}; }
};

/**
 * Tone channel + AllocB/ActiveB barrier state machine.
 *
 * The BM layer drives this: variable allocation populates AllocB,
 * delivery of a Tone-bit Data-channel message activates a barrier,
 * tone_st records arrivals, and the registered release handler fires
 * when a barrier's tone falls silent.
 */
class ToneChannel
{
  public:
    /**
     * @param engine      Simulation engine.
     * @param num_nodes   Nodes on the chip.
     * @param alloc_slots Capacity of AllocB/ActiveB (paper: sized
     *                    equally; allocation overflow is an error).
     */
    ToneChannel(sim::Engine &engine, std::uint32_t num_nodes,
                std::uint32_t alloc_slots = 16);

    /** Handler invoked as handler(ctx, addr), once per completion,
     *  when the barrier on addr releases; @p ctx must outlive the
     *  channel's use of it. */
    void
    setReleaseHandler(void (*handler)(void *ctx, sim::BmAddr addr),
                      void *ctx)
    {
        releaseHandler_ = handler;
        releaseCtx_ = ctx;
    }

    /**
     * Allocate a tone barrier on @p addr with the given participation
     * (Armed) bits. @return false if AllocB is full (caller must fall
     * back to a Data-channel barrier).
     */
    bool alloc(sim::BmAddr addr, std::vector<bool> armed);

    /** Remove the barrier from AllocB everywhere (program teardown). */
    void dealloc(sim::BmAddr addr);

    bool isAllocated(sim::BmAddr addr) const;
    bool isActive(sim::BmAddr addr) const;

    /**
     * Completion epoch of the barrier (bumped at every release). A
     * queued announcement whose epoch is stale — the barrier activated
     * or completed while the message waited in the MAC — must be
     * cancelled instead of transmitted, or it would re-activate an
     * idle barrier.
     */
    std::uint64_t epochOf(sim::BmAddr addr) const;

    /** True if @p node is armed for @p addr (participates). */
    bool isArmed(sim::BmAddr addr, sim::NodeId node) const;

    /**
     * True if any allocated tone barrier arms @p node. Threads on
     * such a node must not migrate (§5.2: the Armed bit is per-node
     * hardware state that cannot follow a thread).
     */
    bool anyArmedOn(sim::NodeId node) const;

    /**
     * Should @p node's tone_st announce the barrier on the Data
     * channel? True iff the barrier is not active yet from this node's
     * (= chip-consistent) point of view.
     */
    bool needsAnnouncement(sim::BmAddr addr) const;

    /**
     * Tone-bit message delivered on the Data channel: copy the AllocB
     * entry into ActiveB (idempotent) and start tones on armed,
     * not-yet-arrived nodes.
     */
    void activate(sim::BmAddr addr);

    /**
     * Core at @p node executed tone_st: drop its tone (or record a
     * pending arrival if the activation is still in flight).
     */
    void arrive(sim::BmAddr addr, sim::NodeId node);

    std::uint32_t activeCount() const
    {
        return static_cast<std::uint32_t>(activeOrder_.size());
    }
    std::uint32_t allocatedCount() const;
    std::uint32_t capacity() const { return allocSlots_; }

    const ToneChannelStats &stats() const { return stats_; }

    /**
     * Empty AllocB/ActiveB, silent channel, zero stats, epochs back to
     * zero. The ticker event (if pending) must have been dropped by
     * the engine reset that precedes this; the release handler is
     * retained.
     */
    void reset();

  private:
    struct Barrier
    {
        sim::BmAddr addr = 0;
        bool used = false;
        bool active = false;
        std::vector<bool> armed;
        std::vector<bool> arrived;
        /** tone_st executed before the activation was delivered. */
        std::vector<bool> pendingArrival;
        /** Armed nodes still jamming the tone (while active): the
         *  barrier's slot is silent when this reaches zero. */
        std::uint32_t toneCount = 0;
        /** Completed iterations (see epochOf). */
        std::uint64_t epoch = 0;
    };

    Barrier *find(sim::BmAddr addr);
    const Barrier *find(sim::BmAddr addr) const;

    /** One 1 ns slot: check the owning active barrier for silence. */
    void tick();
    void startTickerIfNeeded();
    /** Queue the next tick one cycle out (calendar-tier event). */
    void scheduleTick();

    sim::Engine &engine_;
    std::uint32_t numNodes_;
    std::uint32_t allocSlots_;
    std::vector<Barrier> allocB_;
    /** Round-robin order of active barriers (indices into allocB_). */
    std::vector<std::size_t> activeOrder_;
    std::size_t slotIdx_ = 0;
    bool ticking_ = false;
    void (*releaseHandler_)(void *, sim::BmAddr) = nullptr;
    void *releaseCtx_ = nullptr;
    ToneChannelStats stats_;
};

} // namespace wisync::wireless

#endif // WISYNC_WIRELESS_TONE_CHANNEL_HH
