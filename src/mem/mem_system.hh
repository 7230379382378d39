/**
 * @file
 * Coherent memory hierarchy: private L1s, shared banked L2 with an
 * embedded MOESI directory, and off-chip DRAM behind 4 controllers.
 *
 * Timing parameters follow the paper's Table 1:
 *   L1: private 32 KB, 2-way, 2-cycle RT, 64 B lines
 *   L2: shared, per-core 512 KB banks, 8-way, 6-cycle RT (local bank)
 *   Coherence: MOESI, directory embedded at the home L2 bank
 *   Off-chip: 4 memory controllers, 110-cycle RT
 *
 * Transaction model: each miss is a state machine that (1) sends a
 * request to the home bank over the mesh, (2) acquires the line's busy
 * mutex (the directory MSHR), (3) performs probe/invalidation/data legs
 * in parallel, (4) installs the line, commits the functional value,
 * and releases the mutex. Per-line transactions are therefore
 * serialized exactly as a blocking directory would.
 *
 * Frames: none for an access. An L1 hit is one callback event. A miss
 * or upgrade runs in a Miss record from the MemSystem's
 * sim::RecordPool: each step is a sim::Step of the record, run as an
 * event or a completion, its messages are posted mesh records, its MSHR
 * and DRAM-queue waits are callback waiters, and it completes straight
 * into the waiting thread. A GetX's probe and invalidation legs run in
 * pooled Leg records (so do a tree invalidation's acks), its data leg
 * and tree leg in the Miss record itself, and a coro::Join in the
 * record counts them in; each leg starts in a delta-0 event of its
 * own, in list order, and the last one's completion files the join's
 * delta-0 wake, the event order the coroutine legs had. A dirty
 * writeback or an L2 recall is an Eviction record, started in a
 * delta-0 event where it was evicted: a writeback's data message goes
 * home, a recall's invalidations are Leg records counted into its
 * Join. reset() frees every record, disarming the fills and clearing
 * the joins of abandoned ones. Only spin waits are coroutines.
 *
 * Modelling notes (documented simplifications):
 *  - Clean (S/E) L1 evictions are silent; the directory may briefly
 *    hold stale sharers, and invalidating a non-holder costs a wasted
 *    message + ack, as in real sparse directories.
 *  - Dirty evictions post a writeback message; because values
 *    are functional, a probe racing the writeback simply falls back to
 *    the L2/DRAM copy, which is always value-correct.
 *  - DRAM: fixed 110-cycle round trip with 8 outstanding requests per
 *    controller.
 */

#ifndef WISYNC_MEM_MEM_SYSTEM_HH
#define WISYNC_MEM_MEM_SYSTEM_HH

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coro/primitives.hh"
#include "coro/task.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "noc/mesh.hh"
#include "sim/engine.hh"
#include "sim/pooled_map.hh"
#include "sim/record.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wisync::mem {

/** Memory hierarchy timing/geometry knobs (Table 1 defaults). */
struct MemConfig
{
    std::uint32_t lineBytes = 64;
    std::uint32_t l1SizeBytes = 32 * 1024;
    std::uint32_t l1Assoc = 2;
    /** L1 round trip (cycles, >= 1): one event per access. */
    std::uint32_t l1RtCycles = 2;
    std::uint32_t l2BankSizeBytes = 512 * 1024;
    std::uint32_t l2Assoc = 8;
    std::uint32_t l2RtCycles = 6;
    std::uint32_t dramRtCycles = 110;
    std::uint32_t numMemCtrls = 4;
    std::uint32_t dramOutstanding = 8;
    /** Control message payload (req/inv/ack), bits. */
    std::uint32_t ctrlBits = 80;
    /** Data message: 64 B line + header, bits. */
    std::uint32_t dataBits = 64 * 8 + 80;

    /** Field-wise equality (MachineConfig::operator== / fingerprint). */
    bool operator==(const MemConfig &) const = default;
};

/** Result of a compare-and-swap. */
struct CasResult
{
    std::uint64_t oldValue;
    bool success;
};

/** Directory entry: MOESI owner/sharers plus the MSHR mutex. */
struct DirEntry
{
    DirEntry(sim::Engine &eng, std::uint32_t sharer_words)
        : sharers(sharer_words, 0), busy(eng)
    {}

    /** Back to a fresh entry; the bitmap keeps its storage. */
    void
    reset()
    {
        owner = sim::kNoNode;
        inL2 = false;
        std::fill(sharers.begin(), sharers.end(), 0);
        busy.reset();
    }

    sim::NodeId owner = sim::kNoNode;
    std::vector<std::uint64_t> sharers; // bitmap
    bool inL2 = false;
    coro::SimMutex busy;
};

/**
 * The nodes whose bit is set in the sharer bitmap @p sharers (node n
 * is bit n % 64 of word n / 64), ascending, without @p exclude (pass
 * sim::kNoNode to leave out nobody).
 */
noc::Mesh::NodeVec sharerList(std::span<const std::uint64_t> sharers,
                              sim::NodeId exclude);

/** sharerList() into @p out, which keeps its capacity. */
void sharerList(std::span<const std::uint64_t> sharers, sim::NodeId exclude,
                noc::Mesh::NodeVec &out);

/** Whether sharerList() would list anyone, without listing. */
bool hasSharers(std::span<const std::uint64_t> sharers, sim::NodeId exclude);

/**
 * One L2 bank's directory, line -> entry, pooled across resets. Built
 * from the engine that owns the entries' MSHR mutexes and the bitmap
 * length ((numNodes + 63) / 64).
 */
using DirTable = sim::PooledMap<DirEntry, sim::Engine &, std::uint32_t>;

/** Hierarchy-wide statistics. */
struct MemStats
{
    sim::Counter loads;
    sim::Counter stores;
    sim::Counter rmws;
    sim::Counter l1Hits;
    sim::Counter l1Misses;
    sim::Counter upgrades;
    sim::Counter invalidations;
    sim::Counter writebacks;
    sim::Counter dramFetches;
    sim::Counter l2Recalls;
    sim::Accumulator missLatency;
    /** Accesses that hit in the L1 and completed frameless. */
    sim::Counter fastpathHits;
    /** Accesses that missed (or upgraded) and ran the coroutine
     *  transaction. */
    sim::Counter fastpathFallbacks;

    /** Zero everything (assignment cannot miss a late-added field). */
    void reset() { *this = {}; }
};

/**
 * The coherent hierarchy for one simulated chip.
 *
 * Core-facing API: every operation is an awaitable resolving when the
 * access commits. All value semantics are 64-bit words.
 *
 * The five word operations return a frameless Access awaitable: the
 * L1 round trip is one plain callback event, and an L1 hit commits and
 * resumes the caller right there, with no coroutine frame at all. A
 * load hits on a readable copy; every other kind needs write
 * permission. A miss starts the access's own Miss transaction
 * *inside that same event* (so its first message goes out in that
 * event), and the transaction's completion transfers straight into
 * the caller. Both ends call one commit(), which holds each kind's
 * effect on the word.
 */
class MemSystem
{
    struct Miss;
    struct Leg;

  public:
    MemSystem(sim::Engine &engine, noc::Mesh &mesh, Memory &memory,
              std::uint32_t num_nodes, const MemConfig &cfg);

    /** Destination/sharer list type shared with the mesh layer. */
    using NodeVec = noc::Mesh::NodeVec;

    /** The five word-access operations (see Access below). */
    enum class OpKind : std::uint8_t
    {
        Load,
        Store,
        FetchAdd,
        Swap,
        Cas,
    };

    /** Type-independent state of one in-flight access. */
    class AccessBase
    {
      protected:
        AccessBase() = default;
        AccessBase(MemSystem &ms, OpKind kind, sim::NodeId node,
                   sim::Addr addr, std::uint64_t arg0, std::uint64_t arg1)
            : ms_(&ms), node_(node), addr_(addr), arg0_(arg0),
              arg1_(arg1), kind_(kind)
        {}

        friend class MemSystem;

        MemSystem *ms_ = nullptr;
        sim::NodeId node_ = 0;
        sim::Addr addr_ = 0;
        std::uint64_t arg0_ = 0; ///< store value / delta / CAS expected
        std::uint64_t arg1_ = 0; ///< CAS desired
        OpKind kind_ = OpKind::Load;
        std::coroutine_handle<> caller_;
        sim::Cycle t0_ = 0;      ///< miss start, for missLatency
        std::uint64_t out_ = 0;  ///< loaded / previous value
        bool flag_ = false;      ///< CAS comparison outcome
        /** The miss/upgrade transaction, once the L1 round trip
         *  missed; it completes straight into caller_. */
        Miss *miss_ = nullptr;
    };

    /**
     * Awaitable returned by the word operations: carries the operation
     * inline (no coroutine frame). Must be awaited exactly once, in
     * the statement that created it (the standard
     * `co_await mem.load(...)` shape).
     */
    template <typename T>
    class [[nodiscard]] Access : public AccessBase
    {
      public:
        Access(MemSystem &ms, OpKind kind, sim::NodeId node,
               sim::Addr addr, std::uint64_t arg0, std::uint64_t arg1)
            : AccessBase(ms, kind, node, addr, arg0, arg1)
        {}

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            caller_ = h;
            // The L1 round trip: one callback event.
            ms_->engine_.scheduleIn(ms_->cfg_.l1RtCycles, FireFn{this});
        }

        T
        await_resume()
        {
            if (miss_)
                ms_->endMiss(*this);
            if constexpr (std::is_same_v<T, CasResult>)
                return CasResult{out_, flag_};
            else if constexpr (!std::is_void_v<T>)
                return out_;
        }

      private:
        /** 8-byte POD callback: always in the event slot's SBO. */
        struct FireFn
        {
            AccessBase *op;
            void operator()() const { op->ms_->finishAccess(*op); }
        };
    };

    /** Coherent 64-bit load. */
    Access<std::uint64_t> load(sim::NodeId node, sim::Addr addr);

    /** Coherent 64-bit store (completes when M state is held). */
    Access<void> store(sim::NodeId node, sim::Addr addr,
                       std::uint64_t value);

    /** Atomic fetch-and-add; returns the previous value. */
    Access<std::uint64_t> fetchAdd(sim::NodeId node, sim::Addr addr,
                                   std::uint64_t delta);

    /** Atomic swap; returns the previous value. */
    Access<std::uint64_t> swap(sim::NodeId node, sim::Addr addr,
                               std::uint64_t value);

    /** Atomic test-and-set (sets to 1); returns the previous value. */
    Access<std::uint64_t> testAndSet(sim::NodeId node, sim::Addr addr);

    /** Atomic compare-and-swap. */
    Access<CasResult> cas(sim::NodeId node, sim::Addr addr,
                          std::uint64_t expected, std::uint64_t desired);

    /**
     * Event-driven spin: loads @p addr, returns the value once it
     * equals @p want; between checks the thread sleeps until its
     * cached copy of the line is invalidated (i.e. someone wrote it).
     * Timing-equivalent to a test-and-test-and-set style spin on a
     * cached line.
     */
    coro::Task<std::uint64_t>
    spinUntil(sim::NodeId node, sim::Addr addr, std::uint64_t want)
    {
        return spin(node, addr, want, true);
    }

    /** As spinUntil, but returns once the value differs from @p value. */
    coro::Task<std::uint64_t>
    spinWhile(sim::NodeId node, sim::Addr addr, std::uint64_t value)
    {
        return spin(node, addr, value, false);
    }

    const MemStats &stats() const { return stats_; }
    const MemConfig &config() const { return cfg_; }
    Memory &memory() { return memory_; }

    /**
     * Home L2 bank (== directory) of a line: address-interleaved, line
     * number mod node count. Bank n's tag array is built for exactly
     * this interleave (modulus numNodes_, residue n) and stores only the
     * sets it reaches; it panics on a line homed elsewhere, so changing
     * the policy here means changing the Bank construction with it.
     */
    sim::NodeId
    homeOf(sim::Addr line) const
    {
        return static_cast<sim::NodeId>(nodes_.mod(line >> lineShift_));
    }

    /** Observable L1 state, for white-box tests. */
    CohState l1State(sim::NodeId node, sim::Addr addr);

    /** Watch records armed on @p node (spinners and pipelined GetS
     *  fills in flight), for white-box tests. */
    std::size_t
    armedWatches(sim::NodeId node) const
    {
        return armed_[node].size();
    }

    /**
     * Return to post-construction state, optionally retiming: all
     * caches invalid, directory empty, DRAM controllers idle, stats
     * zero, every miss, leg and eviction record free; no watch is
     * armed (the
     * frames that armed them died, and the abandoned records are
     * disarmed). @p cfg may change latencies but must keep the geometry
     * (line/cache sizes, associativities, controller count/depth).
     * In-flight transactions' frames and events must have been dropped
     * by the caller (Machine::reset: Engine::reset) first.
     */
    void reset(const MemConfig &cfg);

    /**
     * Aggregate directory-pool counters over all banks, for tests and
     * bench counters: with reset-recycling, steady-state sweeps should
     * serve (nearly) every entry from the free lists.
     */
    DirTable::Stats dirPoolStats() const;

  private:
    struct Bank
    {
        /** The bank homing line numbers congruent to @p home modulo
         *  @p num_nodes (see homeOf). */
        Bank(sim::Engine &eng, const MemConfig &cfg,
             std::uint32_t num_nodes, sim::NodeId home,
             std::uint32_t sharer_words)
            : tags(cfg.l2BankSizeBytes, cfg.l2Assoc, cfg.lineBytes,
                   num_nodes, home),
              dir(eng, sharer_words)
        {}
        CacheArray tags;
        DirTable dir;
    };

    DirEntry &dirEntry(sim::Addr line);

    /**
     * One miss or upgrade in flight: the directory transaction of
     * access *op as a state machine. Each step runs in an event or as
     * the completion of what the step before it started (see "The
     * miss transaction" in mem_system.cc).
     */
    struct Miss
    {
        explicit Miss(MemSystem *system) : ms(system) {}

        MemSystem *ms;
        AccessBase *op = nullptr;
        DirEntry *e = nullptr;
        sim::Addr line = 0;
        sim::NodeId node = 0;
        sim::NodeId home = 0;
        /** The owner a GetS probes. */
        sim::NodeId owner = 0;
        bool exclusive = false;
        /** The miss's own message: request, probe or data. */
        noc::Mesh::Send msg;
        /** A pipelined GetS fill's watch: an invalidation in flight
         *  kills the fill. */
        coro::Watch fill;
        /** GetX: its legs. The tree leg: its acks. */
        coro::Join legs;
        coro::Join acks;
        /** GetX: the sharers to invalidate, ascending (the tree's
         *  targets), and the tree multicast reaching them. */
        NodeVec sharers;
        noc::Mesh::Multicast tree;

        /** Run step F @p n cycles from now: inline when n is 0. */
        template <void (Miss::*F)()>
        void
        after(sim::Cycle n)
        {
            if (n == 0)
                (this->*F)();
            else
                ms->engine_.scheduleIn(n, sim::Step<F>{this});
        }

        /** Send @p bits from @p src to @p dst; step F at delivery. */
        template <void (Miss::*F)()>
        void
        send(sim::NodeId src, sim::NodeId dst, std::uint32_t bits)
        {
            ms->mesh_.post(msg, src, dst, bits, &sim::Step<F>::call, this);
        }

        void start();
        void atHome();
        void locked();
        void lookedUp();
        void lookedUpShared(bool own_readable);
        void lookedUpExclusive(bool own_readable);
        void pipelinedProbed();
        void pipelinedForward();
        void pipelinedFilled();
        void probed();
        void reprobed();
        void homeData();
        void dramGranted();
        void dramFilled();
        void sendHomeData();
        void sharedFilled();
        void dataLegDone();
        void treeStart();
        void treeDelivered();
        void treeInvalidate();
        void treeAcked();
        void exclusiveGranted();
        void complete();
        /** Disarm the fill and clear the joins: the caller resumed,
         *  or the record was abandoned (reset). */
        void recycle();
    };

    /** A probe, invalidation or ack leg in flight, counted in a
     *  Join (a GetX's, a tree leg's or a recall's). */
    struct Leg
    {
        explicit Leg(MemSystem *system) : ms(system) {}

        MemSystem *ms;
        coro::Join *join = nullptr;
        sim::Addr line = 0;
        sim::NodeId home = 0;
        sim::NodeId target = 0;
        sim::NodeId requestor = 0;
        std::uint32_t replyBits = 0;
        noc::Mesh::Send msg;

        /** An invalidation's start event: home -> target. */
        void startInv();
        void atTarget();
        void invalidate();
        /** An ack's start event: target -> requestor. */
        void startAck();
        void finished();
    };

    /**
     * A dirty L1 eviction's writeback or an L2 eviction's recall of
     * the line's cached copies, each a step chain from its start
     * event: the writeback sends the data home, takes the line's MSHR
     * and clears the evicting node from the directory; the recall
     * takes the MSHR and invalidates every copy, as GetX legs that
     * reply to the home.
     */
    struct Eviction
    {
        explicit Eviction(MemSystem *system) : ms(system) {}

        MemSystem *ms;
        DirEntry *e = nullptr;
        sim::Addr line = 0;
        /** A writeback's evicting node; a recall's home bank. */
        sim::NodeId node = 0;
        /** A writeback's data message. */
        noc::Mesh::Send msg;
        /** A recall's invalidation legs, and the sharers they reach. */
        coro::Join legs;
        NodeVec sharers;

        void startWriteback();
        void writebackAtHome();
        void writebackLocked();
        void writebackDone();
        void startRecall();
        void recallLocked();
        void recallDone();
    };

    /** The access's effect on its word: read, write or both, by kind.
     *  Runs at the commit instant with the permission the kind needs. */
    void commit(AccessBase &op);

    /** L1 round-trip completion: commit a hit frameless or start the
     *  access's miss transaction inside the same event. */
    void finishAccess(AccessBase &op);

    /** The caller resumed from a miss: sample its latency and recycle
     *  the miss record. */
    void endMiss(AccessBase &op);

    void sharerSet(DirEntry &e, sim::NodeId n, bool v);

    /** The loop of spinUntil (@p until_equal) and spinWhile. */
    coro::Task<std::uint64_t> spin(sim::NodeId node, sim::Addr addr,
                                   std::uint64_t value, bool until_equal);

    /** Invalidate node's L1 copy (if any) and fire the node's
     *  watches of the line: pending fills die, spinners wake. */
    void invalidateL1(sim::NodeId node, sim::Addr line);

    /** Install @p line at @p node's L1, evicting as needed. */
    void installL1(sim::NodeId node, sim::Addr line, CohState state);

    /** Ensure the line is present in L2 tags (may evict + recall). */
    void touchL2(sim::Addr line);

    /**
     * Fork one invalidation leg into @p join: a delta-0 event starts
     * it; home -> @p target, the target drops its copy one L1 round
     * trip later and replies @p reply_bits to @p requestor.
     */
    void forkInvLeg(coro::Join &join, sim::NodeId home, sim::NodeId target,
                    sim::NodeId requestor, sim::Addr line,
                    std::uint32_t reply_bits);

    sim::Engine &engine_;
    noc::Mesh &mesh_;
    Memory &memory_;
    std::uint32_t numNodes_;
    MemConfig cfg_;
    /** log2(lineBytes): line number = line address >> lineShift_. */
    std::uint32_t lineShift_;
    /** Line number mod nodes_: home bank; mod memCtrls_: DRAM controller. */
    sim::Divisor nodes_;
    sim::Divisor memCtrls_;
    std::vector<CacheArray> l1s_;
    std::vector<Bank> banks_;
    std::vector<std::unique_ptr<coro::Resource>> dramCtrls_;
    /**
     * Per node, the Watch records armed on its lines: spinners, and
     * GetS fills whose data leg runs after the home released the line
     * (the Miss record's pipelined read paths), which an invalidation
     * kills.
     */
    std::unique_ptr<coro::WatchList[]> armed_;
    /** Miss, leg and eviction records (sim/record.hh); reset() frees
     *  them all, the records of abandoned transactions included. */
    sim::RecordPool<Miss> misses_;
    sim::RecordPool<Leg> legs_;
    sim::RecordPool<Eviction> evictions_;
    MemStats stats_;
};

} // namespace wisync::mem

#endif // WISYNC_MEM_MEM_SYSTEM_HH
