/**
 * @file
 * The replicated Broadcast Memory arrays (paper §3.2, §4.2).
 *
 * Every node holds a BM with space for all allocated broadcast
 * variables; the replicas hold identical values at all times because
 * the only write path is the Data-channel broadcast, whose delivery
 * instant updates every replica in one simulation step. Each 64-bit
 * entry is tagged with the PID of the owning program; a PID mismatch
 * on access is a protection violation (§4.4).
 *
 * Since every replica on a chip is written in the same step, a chip's
 * replica group is stored as one word array: node reads go to their
 * chip's array, and the store costs chips x words, not nodes x words.
 * Watches stay per node: a spinner arms a coro::Watch on its node's
 * list of the word, and a write fires the armed records of the nodes
 * it reaches, in increasing node order (park order within a node).
 *
 * Multi-chip: with several chips each broadcast commits on its own
 * chip's replica group first (writeChip); the inter-chip bridge
 * re-applies it on the other chips a bridge latency later. Words may
 * be marked chip-local (setScope): those never cross the bridge, and
 * the replica-consistency invariant for them holds per chip only.
 */

#ifndef WISYNC_BM_BM_STORE_HH
#define WISYNC_BM_BM_STORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "coro/primitives.hh"
#include "sim/engine.hh"
#include "sim/types.hh"

namespace wisync::bm {

/** Tag value for unallocated entries. */
inline constexpr sim::Pid kNoPid = 0xFFFF;

/** Sharing scope of a BM word (multi-chip machines). */
enum class BmScope : std::uint8_t
{
    /** Bridged to every chip (the default; single-chip semantics). */
    Global,
    /** Never crosses the bridge; each chip's copies are independent. */
    ChipLocal,
};

/** Per-chip replicated broadcast memories + per-node word watches. */
class BmStore
{
  public:
    /** @p num_nodes must divide evenly into @p num_chips groups. */
    BmStore(sim::Engine &engine, std::uint32_t num_nodes,
            std::uint32_t words_per_node, std::uint32_t num_chips = 1);

    std::uint32_t words() const { return words_; }
    std::uint32_t nodes() const { return numNodes_; }
    std::uint32_t chips() const { return numChips_; }

    /** Read @p node's replica of word @p addr. */
    std::uint64_t read(sim::NodeId node, sim::BmAddr addr) const;

    /**
     * Write every replica of @p addr (the broadcast-delivery commit)
     * and wake word watchers on all nodes.
     */
    void writeAll(sim::BmAddr addr, std::uint64_t value);

    /**
     * Write chip @p chip's replicas only (a chip-local commit or a
     * bridged re-apply) and wake exactly that chip's watchers.
     */
    void writeChip(std::uint32_t chip, sim::BmAddr addr,
                   std::uint64_t value);

    /** Toggle 0 <-> 1 on one chip's replicas (per-chip tone release). */
    void toggleChip(std::uint32_t chip, sim::BmAddr addr);

    /** Verify all replicas agree (model invariant; for tests). */
    bool replicasConsistent() const;

    /**
     * Multi-chip invariant: within every @p cores_per_chip-node group
     * all replicas agree, and Global-scope words additionally agree
     * across groups (only meaningful at quiescence — in-flight bridge
     * frames legitimately leave chips divergent mid-run). Groups are
     * one array each, so only the cross-chip half can fail; @p
     * cores_per_chip must be the store's own grouping, or 0 / >=
     * nodes() for the whole-machine check.
     */
    bool replicasConsistent(std::uint32_t cores_per_chip) const;

    /** PID tag management (chunk-granularity protection, §4.4). */
    void setTag(sim::BmAddr addr, sim::Pid pid);
    sim::Pid tag(sim::BmAddr addr) const;

    /** Sharing scope (multi-chip; Global unless marked otherwise). */
    void setScope(sim::BmAddr addr, BmScope scope);
    BmScope scope(sim::BmAddr addr) const;

    /**
     * Arm @p w on @p node's view of word @p addr: the next write that
     * reaches the node's replica of the word fires it (event-driven
     * spinning).
     */
    void arm(coro::Watch &w, sim::NodeId node, sim::BmAddr addr);

    /** Watch records armed on any word, for tests. */
    std::size_t armedWatches() const;

    /** All replicas zero, all tags free (no realloc). The frames that
     *  armed watches died with them. */
    void reset();

    /**
     * Regroup the replicas into @p num_chips chips (a machine re-tiled
     * by reset). Every replica is zeroed; tags and scopes are
     * untouched.
     */
    void regroup(std::uint32_t num_chips);

    /**
     * Order-independent digest of every replica's values plus the PID
     * tags (reset-equivalence test support).
     */
    std::uint64_t fingerprint() const;

  private:
    /** Fire the watches of nodes [@p first, @p end) on @p addr. */
    void fireWatches(sim::NodeId first, sim::NodeId end, sim::BmAddr addr);

    sim::Engine &engine_;
    std::uint32_t numNodes_;
    std::uint32_t words_;
    std::uint32_t numChips_ = 0;
    std::uint32_t nodesPerChip_ = 0;
    std::vector<std::uint64_t> values_; // [chip * words + word]
    std::vector<std::uint32_t> rowOf_;  // node -> chip * words
    std::vector<sim::Pid> tags_;
    std::vector<BmScope> scopes_;
    /** Per word, one watch list per node (null until the word's first
     *  arm). Sized by the first arm, so a machine that never spins
     *  allocates nothing; kept across resets. */
    std::vector<std::unique_ptr<coro::WatchList[]>> armed_;
};

} // namespace wisync::bm

#endif // WISYNC_BM_BM_STORE_HH
