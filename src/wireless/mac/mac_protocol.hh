/**
 * @file
 * The pluggable medium-access-control interface for the Data channel.
 *
 * The DataChannel models the physics (slots, collisions, the
 * expected-free arbitration of §4.1); a MacProtocol decides *when* a
 * node may contend and how contention is resolved. One protocol
 * instance arbitrates the whole channel — per-node front-ends
 * (wireless::Mac) drive it through four hooks, called in this order
 * for every broadcast:
 *
 *   1. acquire(node)       — may the node contend? Granted at once
 *                            (random access, a token parked here) or
 *                            after a wait (a token fetch or queue);
 *   2. the channel attempt  (owned by Mac, not the protocol);
 *   3a. release(node, ok)  — the attempt ended (delivered or aborted):
 *                            drop the claim, pass the token on, update
 *                            backoff state; or
 *   3b. onCollision(node)  — the attempt collided: drop the claim,
 *                            update state and perform this node's
 *                            backoff wait; the sender then re-enters
 *                            at acquire().
 *
 * The two hooks that may wait are plain calls, not coroutines. They
 * return true when the node may go on at once, inside the caller's
 * event. Otherwise the protocol parks the sender's MacWaiter (which
 * lives in the Mac::Send awaitable, in the broadcasting frame) on a
 * delay event or a GrantQueue, and continues it with resume() from
 * the event where the coroutine it replaces resumed — so a BM store
 * owns no frame below its own, and the (cycle, seq) of every event is
 * what it was when each hook was a coroutine.
 *
 * Reset contract (matching Machine::reset): reset() returns the
 * protocol to its post-construction state — no claims, no waiters
 * (the frames holding them were already destroyed by the engine
 * reset), zero stats — so a reset machine draws the exact event
 * sequence a fresh one would.
 */

#ifndef WISYNC_WIRELESS_MAC_MAC_PROTOCOL_HH
#define WISYNC_WIRELESS_MAC_MAC_PROTOCOL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "wireless/mac/mac_kind.hh"

namespace wisync::wireless {

class DataChannel;
struct WirelessConfig;

/**
 * Per-protocol contention telemetry. Channel-level facts (collisions,
 * busy cycles, occupancy) stay on DataChannelStats; these counters
 * describe how the protocol spent the senders' time resolving them.
 */
struct MacStats
{
    /** Broadcast attempts admitted to the channel (acquire calls). */
    sim::Counter acquires;
    /** Collision backoffs performed. */
    sim::Counter backoffEvents;
    /** Cycles senders spent backing off after collisions. */
    sim::Counter backoffCycles;
    /** Acquires that had to queue for the token. */
    sim::Counter tokenWaits;
    /** Cycles senders spent queued for the token. */
    sim::Counter tokenWaitCycles;
    /** Ring hops the token travelled. */
    sim::Counter tokenRotations;
    /** BRS <-> token transitions (AdaptiveMac only). */
    sim::Counter modeSwitches;
    /**
     * FuzzyTokenMac deliveries by a node other than the priority
     * owner — i.e. how often the fuzzy token moved (counts both CSMA
     * grabs and resolver-ordered service).
     */
    sim::Counter fuzzyGrabs;

    // Reliability layer (lossy channel; all zero at lossPct = 0).
    /** Ack windows that expired (one per corrupted transmission). */
    sim::Counter ackTimeouts;
    /** Cycles senders spent in ack windows + retransmission backoff. */
    sim::Counter ackWaitCycles;
    /** Retransmissions performed after an expired ack window. */
    sim::Counter retransmits;
    /** Sends abandoned after maxRetries (typed delivery failures). */
    sim::Counter giveUps;

    /** Zero everything (assignment cannot miss a late-added field). */
    void reset() { *this = {}; }
};

/**
 * A send waiting in a MacProtocol hook. The Mac sets resume before
 * each hook call; a protocol that parks the send fills the rest and
 * later calls resume(*this) from the wake event.
 */
struct MacWaiter
{
    void (*resume)(MacWaiter &) = nullptr;
    /** The node the send is parked for (its protocol-local id). */
    sim::NodeId node = 0;
    /** The cycle a token queue's wait began. */
    sim::Cycle since = 0;
};

/**
 * Per-node token requests of the token protocols (TokenMac's queue,
 * FuzzyTokenMac's colliders): a wanting bit and the parked send per
 * node, at most one each (a Mac serializes its sends).
 * The bits are packed 64 to a word, so the ring scan for the next
 * requester skips idle nodes a word at a time.
 */
class GrantQueue
{
  public:
    GrantQueue(sim::Engine &engine, std::uint32_t num_nodes,
               MacStats &stats);

    /**
     * The first node with a request among the @p count nodes from
     * @p first (< num_nodes) on, in ascending ring order; kNoNode if
     * none of them has one.
     */
    sim::NodeId nextWanting(sim::NodeId first, std::uint32_t count) const;

    /**
     * Queue @p node's request and park @p w until grant(node); the
     * wake adds the wait to tokenWaitCycles and resumes @p w.
     */
    void park(sim::NodeId node, MacWaiter &w);

    /** Clear @p node's request and file its parked send's wake
     *  (delta 0). */
    void grant(sim::NodeId node);

    /** No requests, no waiters (see MacProtocol::reset). */
    void reset();

  private:
    static std::uint64_t bit(sim::NodeId node)
    {
        return std::uint64_t{1} << (node & 63);
    }
    bool
    wanting(sim::NodeId node) const
    {
        return (wanting_[node >> 6] & bit(node)) != 0;
    }
    /** The first requester in [@p lo, @p hi), or kNoNode. */
    sim::NodeId firstIn(std::uint32_t lo, std::uint32_t hi) const;

    sim::Engine &engine_;
    MacStats &stats_;
    std::uint32_t numNodes_;
    std::vector<std::uint64_t> wanting_;
    std::vector<MacWaiter *> parked_;
};

/** Channel-wide MAC protocol; see the file comment for the contract. */
class MacProtocol
{
  public:
    /**
     * @param shared_stats  When non-null, telemetry lands there
     *                      instead of a private block — used by
     *                      composite protocols (AdaptiveMac) so their
     *                      sub-policies report into one set.
     */
    MacProtocol(sim::Engine &engine, DataChannel &channel,
                std::uint32_t num_nodes, MacStats *shared_stats = nullptr)
        : engine_(engine), channel_(channel), numNodes_(num_nodes),
          stats_(shared_stats != nullptr ? shared_stats : &own_)
    {}
    virtual ~MacProtocol() = default;

    MacProtocol(const MacProtocol &) = delete;
    MacProtocol &operator=(const MacProtocol &) = delete;

    virtual MacKind kind() const = 0;

    /**
     * True when @p node may contend now; false when the protocol
     * parked @p w and will resume it once the node may.
     */
    virtual bool acquire(sim::NodeId node, MacWaiter &w) = 0;

    /**
     * The attempt ended without a collision: @p delivered tells
     * success from an AFB abort. Drops the node's claim.
     */
    virtual void release(sim::NodeId node, bool delivered) = 0;

    /**
     * The attempt collided: drop the claim and update contention
     * state. True when the node may re-enter acquire() at once; false
     * when the protocol parked @p w for this node's backoff wait. @p
     * rng is the node's private stream (only BRS-style policies draw
     * from it).
     */
    virtual bool onCollision(sim::NodeId node, sim::Rng &rng,
                             MacWaiter &w) = 0;

    /** Post-construction state, zero stats (Machine::reset contract). */
    virtual void reset() = 0;

    const MacStats &stats() const { return *stats_; }

    // Reliability-layer telemetry, driven by the Mac front-ends (the
    // ack/retry state machine lives there); non-virtual so composite
    // protocols record into their shared stats block automatically.
    /** An ack window expired; @p waited covers it plus any backoff. */
    void
    noteAckTimeout(sim::Cycle waited)
    {
        stats_->ackTimeouts.inc();
        stats_->ackWaitCycles.inc(waited);
    }
    /** A retransmission follows the expired window. */
    void noteRetransmit() { stats_->retransmits.inc(); }
    /** maxRetries exhausted; the send surfaces a typed failure. */
    void noteGiveUp() { stats_->giveUps.inc(); }

    std::uint32_t numNodes() const { return numNodes_; }

  protected:
    MacStats &st() { return *stats_; }

    /** Park @p w for @p cycles; the wake event resumes it. */
    void
    resumeAfter(sim::Cycle cycles, MacWaiter &w)
    {
        struct Wake
        {
            MacWaiter *w;
            void operator()() const { w->resume(*w); }
        };
        engine_.scheduleIn(cycles, Wake{&w});
    }

    /** Hops from @p from to @p to in ascending-ring order. */
    std::uint32_t
    ringDist(sim::NodeId from, sim::NodeId to) const
    {
        return (to + numNodes_ - from) % numNodes_;
    }

    sim::Engine &engine_;
    DataChannel &channel_;
    std::uint32_t numNodes_;

  private:
    MacStats own_;
    MacStats *stats_;
};

/** Build the protocol selected by @p cfg.macKind for @p num_nodes. */
std::unique_ptr<MacProtocol> makeMacProtocol(const WirelessConfig &cfg,
                                             sim::Engine &engine,
                                             DataChannel &channel,
                                             std::uint32_t num_nodes);

} // namespace wisync::wireless

#endif // WISYNC_WIRELESS_MAC_MAC_PROTOCOL_HH
