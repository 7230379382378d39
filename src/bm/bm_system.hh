/**
 * @file
 * The Broadcast Memory controller: WiSync's instruction surface.
 *
 * Implements the paper's §4.2 semantics on top of the Data channel,
 * Tone channel and BmStore:
 *
 *  - Plain loads read the local replica (2-cycle BM round trip) and
 *    always succeed.
 *  - Stores broadcast first; only when the wireless transfer succeeds
 *    is any replica (including the local one) updated, which yields a
 *    chip-wide total order of BM writes. The Write Completion Bit
 *    (WCB) semantics are implicit: a store coroutine resolves exactly
 *    when WCB would be set.
 *  - RMW instructions (test&set, fetch&inc, fetch&add, CAS) read the
 *    local replica, modify in the pipeline, and attempt the broadcast.
 *    If a remote store to the same address arrives in between, the
 *    Atomicity Failure Bit (AFB) is set and the write is aborted: the
 *    instruction completes without broadcasting or updating the BM,
 *    and software must retry (Fig. 4(a,b)).
 *  - Bulk load/store move 4 consecutive words; a bulk broadcast takes
 *    15 cycles instead of 4x5 (§4.1).
 *  - tone_st / tone_ld drive the Tone channel's hardware barrier
 *    (§4.2.2); the release toggles the barrier word in every replica
 *    on the barrier's chip.
 *  - Every access checks the entry's PID tag (§4.4); a mismatch throws
 *    ProtectionFault.
 *
 * A load is a frameless awaitable (a BM round trip, then the replica
 * read); a store, bulk store or RMW owns one coroutine frame, its own,
 * since the MAC send it awaits (wireless::Mac::Send) keeps its state
 * in that frame. The send borrows its hooks from the frame too: the
 * delivery commit is a lambda held there, and the abort test is a
 * plain function over the pending RMW or the tone announcement's
 * watch. The bridge delivery and the tone release are likewise
 * (fn, ctx) pairs: a sim::Step of a BridgeFrame record (from a
 * sim::RecordPool) and a per-chip context.
 *
 * Multi-chip machines (numChips > 1) generalize this machine-wide:
 * each chip owns a contiguous block of coresPerChip nodes, its own BM
 * replica group, tone channel and die geometry (RfChannelModel); the
 * FrequencyPlan maps chips onto data channels so separate spectrum
 * slots transmit concurrently (the channel is the arbitration domain).
 * A broadcast commits on the transmitting chip at its delivery instant
 * and crosses the ChipBridge to the other replica groups afterwards;
 * per-(chip, word) version clocks make the re-apply last-writer-wins
 * and extend the AFB contract across chips: an RMW only commits if its
 * chip's replica of the word was globally current at the delivery
 * instant — otherwise AFB is raised and software retries once the
 * bridged update has landed. Words marked chip-local in the BmStore
 * (barrier counters and the like) skip the bridge entirely and keep
 * exact single-chip semantics within their chip.
 */

#ifndef WISYNC_BM_BM_SYSTEM_HH
#define WISYNC_BM_BM_SYSTEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bm/bm_store.hh"
#include "coro/primitives.hh"
#include "coro/task.hh"
#include "noc/chip_bridge.hh"
#include "sim/engine.hh"
#include "sim/record.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "wireless/data_channel.hh"
#include "wireless/frequency_plan.hh"
#include "wireless/mac/mac_protocol.hh"
#include "wireless/rf_model.hh"
#include "wireless/tone_channel.hh"

namespace wisync::bm {

/** BM geometry/timing knobs (Table 1 defaults). */
struct BmConfig
{
    /** Per-node BM capacity (16 KB => 2048 64-bit entries). */
    std::uint32_t bmBytes = 16 * 1024;
    /** BM access round trip, cycles. */
    std::uint32_t bmRtCycles = 2;
    /** Pipeline modify stage of an RMW, cycles. */
    std::uint32_t rmwModifyCycles = 1;
    /** AllocB/ActiveB capacity for tone barriers. */
    std::uint32_t allocSlots = 16;

    /** Field-wise equality (MachineConfig::operator== / fingerprint). */
    bool operator==(const BmConfig &) const = default;

    std::uint32_t words() const { return bmBytes / 8; }
};

/** PID-tag mismatch on a BM access (§4.4). */
class ProtectionFault : public std::runtime_error
{
  public:
    ProtectionFault(sim::BmAddr addr, sim::Pid pid)
        : std::runtime_error("BM protection fault"), addr(addr), pid(pid)
    {}
    sim::BmAddr addr;
    sim::Pid pid;
};

/** The BM read-modify-write instructions (§4.2.1). */
enum class RmwOp : std::uint8_t
{
    /** fetch&add (fetch&inc is operand 1): writes old + operand. */
    FetchAdd,
    /** test&set: writes 1. */
    TestAndSet,
    /** Compare-and-swap (Fig. 4(b)): writes the desired value iff the
     *  old value equals the operand. */
    Cas,
};

/** Result of a BM RMW instruction (value, comparison, AFB register). */
struct RmwResult
{
    std::uint64_t oldValue = 0;
    /** CAS comparison outcome ("CAS returns zero if contents differ");
     *  always true for fetch&add and test&set. */
    bool compared = true;
    /** AFB: set -> the write never occurred; retry the instruction. */
    bool atomicityFailed = false;

    bool succeeded() const { return compared && !atomicityFailed; }
};

/** BM-level statistics. */
struct BmStats
{
    sim::Counter loads;
    sim::Counter stores;
    sim::Counter bulkStores;
    sim::Counter rmws;
    sim::Counter afbFailures;
    /** Controller broadcasts (stores, allocs, tone announcements) the
     *  reliability layer gave up on and the controller re-issued —
     *  graceful degradation under a lossy channel: the operation just
     *  completes later, replicas never diverge. */
    sim::Counter sendReissues;
    sim::Counter toneStores;
    sim::Counter toneAnnouncements;
    sim::Counter protectionFaults;
    /** Multi-chip: RMWs aborted because the local replica was stale
     *  (a bridged update had not landed yet) — a subset of
     *  afbFailures, counted separately for the figure family. */
    sim::Counter staleRmwAborts;

    /** Zero everything (assignment cannot miss a late-added field). */
    void reset() { *this = {}; }
};

/**
 * The machine's Broadcast Memory system: replicated stores, per-node
 * MACs on the chips' Data channels, per-chip Tone channels, and (for
 * numChips > 1) the inter-chip bridge.
 */
class BmSystem
{
  public:
    /**
     * @param with_tone  False for WiSyncNoT (no Tone channel; tone_st
     *                   and tone barriers are unavailable).
     * @param num_chips  Chips in the package; num_nodes must divide
     *                   evenly. A single chip is chip 0 of the same
     *                   machine, with no bridge.
     */
    BmSystem(sim::Engine &engine, std::uint32_t num_nodes,
             const BmConfig &cfg, const wireless::WirelessConfig &wcfg,
             sim::Rng rng, bool with_tone = true,
             std::uint32_t num_chips = 1,
             const noc::BridgeConfig &bridge_cfg = {});

    // ---- Instruction surface -------------------------------------

    /**
     * A BM load in flight: the BM round trip is a plain delay and the
     * local replica is read when it ends, in await_resume. Frameless;
     * await it in the statement that created it.
     */
    class [[nodiscard]] Load : public coro::DelayAwaiter
    {
      public:
        Load(BmSystem &bm, sim::NodeId node, sim::BmAddr addr)
            : DelayAwaiter(bm.engine_, bm.cfg_.bmRtCycles),
              store_(&bm.store_), node_(node), addr_(addr)
        {}

        std::uint64_t
        await_resume() const
        {
            return store_->read(node_, addr_);
        }

      protected:
        const BmStore *store_;
        sim::NodeId node_;
        sim::BmAddr addr_;
    };

    /** A bulk load in flight: Load over 4 consecutive words. */
    class [[nodiscard]] BulkLoad : public Load
    {
      public:
        using Load::Load;

        std::array<std::uint64_t, 4>
        await_resume() const
        {
            std::array<std::uint64_t, 4> out;
            for (std::uint32_t i = 0; i < 4; ++i)
                out[i] = store_->read(node_, addr_ + i);
            return out;
        }
    };

    /** Plain BM load: local replica, always succeeds. */
    Load load(sim::NodeId node, sim::Pid pid, sim::BmAddr addr);

    /** Plain BM store: broadcast, then update all replicas. */
    coro::Task<void> store(sim::NodeId node, sim::Pid pid,
                           sim::BmAddr addr, std::uint64_t value);

    /** Bulk load of 4 consecutive words from the local replica. */
    BulkLoad bulkLoad(sim::NodeId node, sim::Pid pid, sim::BmAddr addr);

    /** Bulk store of 4 consecutive words (one 15-cycle broadcast). */
    coro::Task<void> bulkStore(sim::NodeId node, sim::Pid pid,
                               sim::BmAddr addr,
                               std::array<std::uint64_t, 4> values);

    /**
     * One RMW instruction (Fig. 4(a,b)): read the local replica, modify
     * in the pipeline, broadcast the new value; a remote store to the
     * word in between raises AFB and the write never happens. @p
     * operand is the fetch&add delta or the CAS expected value, @p
     * desired the CAS new value.
     */
    coro::Task<RmwResult> rmw(sim::NodeId node, sim::Pid pid,
                              sim::BmAddr addr, RmwOp op,
                              std::uint64_t operand = 0,
                              std::uint64_t desired = 0);

    /**
     * The software retry loop of Fig. 4(a): repeat rmw() until AFB is
     * clear; returns the old value.
     */
    coro::Task<std::uint64_t> rmwRetry(sim::NodeId node, sim::Pid pid,
                                       sim::BmAddr addr, RmwOp op,
                                       std::uint64_t operand = 0);

    // ---- Tone-channel instructions (§4.2.2) ----------------------

    /** tone_st: arrival at the tone barrier on @p addr. (tone_ld is
     *  a plain load() of the barrier word.) */
    coro::Task<void> toneStore(sim::NodeId node, sim::Pid pid,
                               sim::BmAddr addr);

    // ---- Spin support ---------------------------------------------

    /** Event-driven spin on a BM word until it equals @p want. */
    coro::Task<std::uint64_t>
    spinUntil(sim::NodeId node, sim::Pid pid, sim::BmAddr addr,
              std::uint64_t want)
    {
        return spin(node, pid, addr, want, true);
    }

    /** As spinUntil, but returns once the word differs from @p value. */
    coro::Task<std::uint64_t>
    spinWhile(sim::NodeId node, sim::Pid pid, sim::BmAddr addr,
              std::uint64_t value)
    {
        return spin(node, pid, addr, value, false);
    }

    // ---- Allocation hooks (used by core::Os, §4.4) ----------------

    /** Tag a chunk of words with a PID (broadcast alloc message). */
    coro::Task<void> allocEntries(sim::NodeId node, sim::Pid pid,
                                  sim::BmAddr addr, std::uint32_t count);

    /** Release entries (broadcast dealloc message). */
    coro::Task<void> deallocEntries(sim::NodeId node, sim::BmAddr addr,
                                    std::uint32_t count);

    /**
     * Register a tone barrier; false if AllocB overflows or no tone.
     * @p armed is indexed by global node id; the armed nodes must all
     * sit on one chip (the tone channel is per-die hardware) — a
     * spanning or empty set returns false and the caller falls back
     * to a Data-channel barrier. The barrier word turns chip-local.
     */
    bool allocToneBarrier(sim::BmAddr addr, std::vector<bool> armed);
    void deallocToneBarrier(sim::BmAddr addr);

    // ---- Introspection --------------------------------------------

    BmStore &storeArray() { return store_; }
    /** Channel 0 (the only channel on single-chip machines). */
    wireless::DataChannel &dataChannel() { return *channels_[0]; }
    /** Arbitration domains under the frequency plan. */
    std::uint32_t
    channelCount() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }
    wireless::DataChannel &
    dataChannel(std::uint32_t channel)
    {
        return *channels_[channel];
    }
    /** Chip 0's tone channel (the only one on single-chip machines). */
    wireless::ToneChannel *
    toneChannel()
    {
        return toneEnabled_ ? tones_[0].get() : nullptr;
    }
    wireless::ToneChannel *
    toneChannel(std::uint32_t chip)
    {
        return toneEnabled_ ? tones_[chip].get() : nullptr;
    }
    wireless::Mac &mac(sim::NodeId node) { return *macs_[node]; }
    /** Channel 0's MAC protocol (WirelessConfig::macKind). */
    wireless::MacProtocol &macProtocol() { return *macProtocols_[0]; }
    const wireless::MacProtocol &macProtocol() const
    {
        return *macProtocols_[0];
    }
    wireless::MacProtocol &
    macProtocol(std::uint32_t channel)
    {
        return *macProtocols_[channel];
    }
    const BmStats &stats() const { return stats_; }
    const BmConfig &config() const { return cfg_; }
    bool hasTone() const { return toneEnabled_; }

    std::uint32_t numChips() const { return numChips_; }
    std::uint32_t coresPerChip() const { return coresPerChip_; }
    std::uint32_t
    chipOf(sim::NodeId node) const
    {
        return node / coresPerChip_;
    }
    const wireless::FrequencyPlan &frequencyPlan() const { return plan_; }
    /** The inter-chip bridge (null on single-chip machines). */
    noc::ChipBridge *bridge() { return bridge_.get(); }
    const noc::ChipBridge *bridge() const { return bridge_.get(); }

    /** True if any allocated tone barrier arms @p node (global id). */
    bool anyToneArmedOn(sim::NodeId node) const;

    /** Chip 0's SNR->BER channel model (null unless berFromSnr). */
    const wireless::RfChannelModel *
    rfChannelModel() const
    {
        return rfModels_.empty() ? nullptr : rfModels_[0].get();
    }

    /**
     * Pin one link's attenuation (a blocked or resonant in-package
     * path) and re-derive the channel's drop table. Requires
     * berFromSnr; @p tx and @p rx are global node ids on the same chip
     * (cross-chip paths are not wireless links). Meant for experiments
     * and tests.
     */
    void overrideLinkPathLoss(sim::NodeId tx, sim::NodeId rx, double db);

    /**
     * Return to post-construction state, optionally retiming: zeroed
     * store, idle channels, fresh per-node MAC backoff/RNG streams
     * (@p rng must be the same fork the constructor received so a
     * reset machine draws the exact sequence a fresh one would), no
     * pending RMWs, zero stats. @p cfg / @p wcfg may change timing
     * only (capacity and AllocB slots are fixed at construction);
     * @p with_tone may flip the Tone channel on or off, and
     * @p num_chips may re-tile the machine into a different chip grid
     * (the chip-topology objects are rebuilt only when the tiling or
     * frequency plan actually changes — the common same-shape reset
     * stays allocation-free).
     */
    void reset(const BmConfig &cfg, const wireless::WirelessConfig &wcfg,
               sim::Rng rng, bool with_tone, std::uint32_t num_chips = 1,
               const noc::BridgeConfig &bridge_cfg = {});

  private:
    void checkPid(sim::BmAddr addr, sim::Pid pid, std::uint32_t count = 1);

    /** The loop of spinUntil (@p until_equal) and spinWhile. */
    coro::Task<std::uint64_t> spin(sim::NodeId node, sim::Pid pid,
                                   sim::BmAddr addr, std::uint64_t value,
                                   bool until_equal);

    /** Build channels/protocols/tones/bridge for @p num_chips; drops
     *  the MACs, which bindMacs() rebuilds on the new channels. */
    void rebuildChipTopology(const wireless::WirelessConfig &wcfg,
                             const noc::BridgeConfig &bridge_cfg,
                             std::uint32_t num_chips);

    /**
     * Give every node's MAC (built if none exist, else reset onto its
     * channel's protocol) and then the bridge a fresh fork of @p rng.
     * Forks go in global node order, bridge last — the contract that
     * keeps a reset machine's random stream identical to a fresh one
     * regardless of the chip tiling.
     */
    void bindMacs(sim::Rng &rng);

    /** The channel index node @p node transmits on. */
    std::uint32_t
    channelIdxOf(sim::NodeId node) const
    {
        return plan_.channelOf(chipOf(node));
    }

    /** @p node's id within its channel's arbitration domain. */
    sim::NodeId
    channelLocalNode(sim::NodeId node) const
    {
        const std::uint32_t chip = chipOf(node);
        return plan_.chipIndexOnChannel(chip) * coresPerChip_ +
               node % coresPerChip_;
    }

    /** Build (or drop) the RF channel models per @p wcfg.berFromSnr
     *  and install the per-transmitter drop tables. */
    void configureLoss(const wireless::WirelessConfig &wcfg);
    void refreshDropTable();

    /** Track a pending RMW for AFB detection. */
    struct PendingRmw
    {
        bool active = false;
        sim::BmAddr addr = 0;
        bool afb = false;
        /** Its node's index in armed_ while active. */
        std::uint32_t slot = 0;

        /** The RMW's abort test (Mac::send): AFB was raised. */
        static bool
        afbRaised(void *p)
        {
            return static_cast<const PendingRmw *>(p)->afb;
        }
    };

    /** A pooled in-flight bridge frame (global-scope commits only). */
    struct BridgeFrame
    {
        explicit BridgeFrame(BmSystem *system) : bm(system) {}

        /** The system it lands in. */
        BmSystem *bm;
        sim::BmAddr addr = 0;
        std::uint32_t count = 0;
        std::uint32_t srcChip = 0;
        std::array<std::uint64_t, 4> values{};
        std::array<std::uint64_t, 4> versions{};

        /** The bridge delivery (ChipBridge::post). */
        void land() { bm->applyBridged(this); }
    };

    /** Broadcast-delivery commit for a (possibly bulk) store. */
    void deliverStore(sim::NodeId src, sim::BmAddr addr,
                      const std::uint64_t *values, std::uint32_t count);

    /**
     * Delivery-instant commit of an RMW's write. On a multi-chip
     * machine the write only commits if the transmitting chip's
     * replica of @p addr is globally current (and AFB is still clear);
     * otherwise AFB is raised and nothing is written — the RMW was
     * computed from a stale value.
     */
    void deliverRmw(sim::NodeId node, sim::BmAddr addr,
                    std::uint64_t value);

    /** Bridge arrival: LWW-apply @p frame on every other chip. */
    void applyBridged(BridgeFrame *frame);

    /** A tone announcement's cancellation test (§5.1): the message is
     *  redundant once the barrier is active or its epoch moved on. */
    struct ToneWatch
    {
        wireless::ToneChannel *tone;
        sim::BmAddr addr;
        std::uint64_t epoch;

        /** The announcement's abort test (Mac::send). */
        static bool redundant(void *w);
    };

    /** A chip's tone release handler context: toggle its replicas. */
    struct ToneRelease
    {
        BmSystem *bm;
        std::uint32_t chip;

        static void toggle(void *r, sim::BmAddr addr);
    };

    /**
     * Broadcast one controller message (store, bulk store, tag update,
     * tone announcement) from @p node and wait @p after cycles;
     * @p deliver commits it at the delivery instant. When the
     * reliability layer gives up, the message is re-issued with a fresh
     * retry budget until delivered. A set @p watch cancels it once
     * redundant instead. Defined, and only instantiated, in
     * bm_system.cc.
     */
    template <typename Deliver>
    coro::Task<void> broadcast(sim::NodeId node, bool bulk, Deliver deliver,
                               sim::Cycle after, ToneWatch watch = {});

    sim::Engine &engine_;
    std::uint32_t numNodes_;
    BmConfig cfg_;
    BmStore store_;
    std::uint32_t numChips_ = 1;
    std::uint32_t coresPerChip_;
    wireless::FrequencyPlan plan_;
    /** One DataChannel per frequency-plan slot; >= 1. */
    std::vector<std::unique_ptr<wireless::DataChannel>> channels_;
    /** One MAC protocol per channel (the arbitration domain); rebuilt
     *  when reset flips macKind or the chip tiling. */
    std::vector<std::unique_ptr<wireless::MacProtocol>> macProtocols_;
    /** Per-node MAC front-ends, in global node order (RNG contract). */
    std::vector<std::unique_ptr<wireless::Mac>> macs_;
    /** One ToneChannel per chip; gated by toneEnabled_ (WiSyncNoT). */
    std::vector<std::unique_ptr<wireless::ToneChannel>> tones_;
    /** Their release handlers' contexts, one per chip. */
    std::vector<ToneRelease> toneReleases_;
    /** Per-chip SNR->BER attenuation matrices (only when berFromSnr). */
    std::vector<std::unique_ptr<wireless::RfChannelModel>> rfModels_;
    /** Inter-chip link (numChips > 1 only). */
    std::unique_ptr<noc::ChipBridge> bridge_;
    noc::BridgeConfig bridgeCfg_;
    /** Per-word global version clock (bumped at every global-scope
     *  commit) and per-(chip, word) applied clock; empty at 1 chip. */
    std::vector<std::uint64_t> globalVersion_;
    std::vector<std::uint64_t> appliedVersion_; // [chip * words + word]
    /** Bridge frames in flight; reset() frees them all. */
    sim::RecordPool<BridgeFrame> frames_;
    bool toneEnabled_ = true;
    std::vector<PendingRmw> pendingRmw_; // per node
    /**
     * Per chip, the nodes whose PendingRmw is active, in no particular
     * order (a BM write only sets flags on them): chip c's list is
     * armed_[c * coresPerChip_ ...] with armedCount_[c] entries.
     */
    std::vector<sim::NodeId> armed_;
    std::vector<std::uint32_t> armedCount_;

    /** No RMW pending anywhere (construction and reset). */
    void clearPendingRmws();
    /** Open @p node's RMW window on @p addr. */
    void armRmw(sim::NodeId node, sim::BmAddr addr);
    /** Close @p node's RMW window. */
    void disarmRmw(sim::NodeId node);
    BmStats stats_;
};

} // namespace wisync::bm

#endif // WISYNC_BM_BM_SYSTEM_HH
