/**
 * @file
 * Discrete-event simulation engine.
 *
 * The engine owns the global event queue. All model components schedule
 * callbacks at absolute or relative cycle times; the engine executes
 * them in (cycle, insertion-order) order, which makes simulations fully
 * deterministic for a given seed.
 *
 * Internally the queue is a same-cycle ring plus two tiers for later
 * cycles, chosen so that the common cases never pay a heap allocation
 * or an O(log n) comparison sift:
 *
 *   1. Ready ring — events due at the current cycle (scheduleIn(0),
 *                   mutex handoffs, CondVar wakeups, arbitration
 *                   windows). A FIFO ring buffer: push/pop are O(1)
 *                   and allocation-free in steady state.
 *   2. Level 0    — one bucket per cycle over the sliding window
 *                   [now, now + 256): an event lands in bucket
 *                   when & 255, and the next busy cycle is found by
 *                   scanning a 256-bit occupancy bitmap from now's
 *                   index, wrapping once. The model's dominant delays
 *                   (wireless slots, mesh hops, cache latencies) are
 *                   small constants, so nearly every event goes here.
 *   3. Far heap   — events 256 or more cycles out (under 2% of model
 *                   traffic). A (when, seq) min-heap; an event
 *                   waits there until its own cycle, then moves into
 *                   the level-0 bucket being staged.
 *
 * Every event is one 32-byte, trivially copyable slot: a trampoline
 * pointer, 16 payload bytes and the insertion sequence number, so
 * filing, staging and draining an event are plain copies and running
 * it is one indirect call. schedule(), scheduleIn() and
 * scheduleReserved() take the callable as a template parameter and
 * store it in the payload; a static_assert requires it to be
 * trivially copyable and at most 16 bytes (a `this` pointer plus a
 * pointer or index, or a (fn, ctx) pair whose context outlives the
 * event). resumeHandle() stores a coroutine frame address under a
 * resume trampoline. An event owns nothing, so one dropped without
 * running (reset(), ~Engine) is simply forgotten.
 *
 * Determinism contract: execution order is exactly (cycle, global
 * insertion order), bit-identical to a single (when, seq) min-heap.
 * Every slot carries its insertion sequence number; when a cycle's
 * events are staged for execution they are sorted by that number if
 * far-heap arrivals or a later-cycle scheduleReserved() mixed their
 * order (same-cycle arrivals during execution are FIFO behind them by
 * construction, since they are inserted later than anything staged).
 * tests/test_engine_determinism.cc replays randomized schedules
 * against a reference heap scheduler to lock this in.
 */

#ifndef WISYNC_SIM_ENGINE_HH
#define WISYNC_SIM_ENGINE_HH

#include <array>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace wisync::sim {

/**
 * Deterministic discrete-event engine.
 *
 * Single-threaded by design: hardware concurrency is modelled by event
 * interleaving, not host threads, so no locking is required anywhere in
 * the model.
 */
class Engine
{
  public:
    /**
     * Level-0 window: an event less than this many cycles ahead is
     * filed straight into its cycle's bucket; anything later waits in
     * the far heap. Kept public so tests can exercise the boundary.
     */
    static constexpr Cycle kCalendarHorizon = 256;

    /**
     * Bytes of an event callable, which must also be trivially
     * copyable: it is stored inline in its event slot.
     */
    static constexpr std::size_t kInlinePayload = 16;

    /** Per-tier event counters (see tierStats()). */
    struct TierStats
    {
        std::uint64_t ready = 0;    ///< same-cycle ring insertions
        /** Level-0 insertions, including same-cycle scheduleReserved()
         *  splices into the bucket being drained. */
        std::uint64_t calendar = 0;
        std::uint64_t heap = 0;     ///< far-heap insertions
        std::uint64_t cascades = 0; ///< far-heap events moved to level 0
    };

    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;
    ~Engine(); // destroys live root frames + drops pending events

    /** Current simulated time in cycles. */
    Cycle now() const { return now_; }

    /**
     * Schedule a callback at an absolute cycle.
     *
     * @param when Absolute cycle; must be >= now().
     * @param fn   Callable run when simulated time reaches @p when.
     *             Stored inline (see kInlinePayload).
     */
    template <typename F>
    void
    schedule(Cycle when, F &&fn)
    {
        scheduleSlot(when, makeSlot(std::forward<F>(fn)));
    }

    /** Schedule a callback @p delta cycles from now. */
    template <typename F>
    void
    scheduleIn(Cycle delta, F &&fn)
    {
        scheduleSlot(now_ + delta, makeSlot(std::forward<F>(fn)));
    }

    /**
     * Fast path for coroutine wakeups: resume @p h at now() + delta.
     *
     * Equivalent to scheduleIn(delta, [h] { h.resume(); }): the slot
     * holds the frame address under a resume trampoline. This is the
     * route every awaiter in coro/primitives.hh takes.
     */
    void
    resumeHandle(Cycle delta, std::coroutine_handle<> h)
    {
        Slot s;
        s.call = &resumeFrame;
        void *frame = h.address();
        std::memcpy(s.payload, &frame, sizeof(frame));
        scheduleSlot(now_ + delta, s);
    }

    // ---- Reserved-sequence (deferred) events -------------------------
    //
    // A component that *may* need an event at a known future cycle can
    // claim its place in the deterministic execution order now and
    // only pay for the event if it turns out to be needed: reserveSeq()
    // consumes the next insertion-sequence number without scheduling
    // anything, and scheduleReserved() later files a callback under
    // that saved number. Execution order is exactly as if the event
    // had been scheduled eagerly at reservation time — the (cycle,
    // seq) contract is indifferent to *when* the slot was filed — so
    // optimizations like SimMutex's lazily-materialized releases are
    // bit-exact, including the order in which same-cycle events run.

    /** Claim the next insertion-sequence number without an event. */
    std::uint64_t reserveSeq() { return nextSeq_++; }

    /**
     * Insertion-sequence number of the event currently executing.
     * Meaningful only inside a callback/resume invoked by run(); used
     * to decide whether a reserved-seq event logically "already ran"
     * within the current cycle.
     */
    std::uint64_t currentSeq() const { return currentSeq_; }

    /**
     * File @p fn at absolute cycle @p when under the previously
     * reserved @p seq. @p when must be >= now(); when == now() is only
     * legal while the current cycle's staged bucket is still draining
     * and @p seq is still ahead of currentSeq() (the materialize-on-
     * demand pattern guarantees both).
     */
    template <typename F>
    void
    scheduleReserved(Cycle when, std::uint64_t seq, F &&fn)
    {
        fileReserved(when, seq, makeSlot(std::forward<F>(fn)));
    }

    /**
     * Run until the event queue drains or @p limit is reached.
     *
     * @param limit Hard cycle limit (guards against livelock in tests);
     *              must be >= now().
     * @return true if the queue drained, false if the limit was hit or
     *         stop() was called with events still pending.
     */
    bool run(Cycle limit = kCycleMax);

    /** Request that run() return after the current event. */
    void stop() { stopped_ = true; }

    // ---- Simulated-cycle deadline ------------------------------------
    //
    // A hard budget on simulated time, enforced inside run()'s park
    // decision: the effective limit of every run() call is
    // min(limit, deadline), and parking *because of the deadline* is
    // recorded in deadlineHit(). Unlike a workload's own run limit
    // (which legitimately produces a completed=false result), a
    // deadline hit means the caller imposed an external budget — the
    // service layer turns it into a typed DeadlineExceeded error at
    // exactly now() == deadline, deterministically: the park never
    // executes a single event past the budget cycle.

    /** Arm a deadline at absolute cycle @p deadline (clears any
     *  previous hit flag). kCycleMax disarms. */
    void
    setDeadline(Cycle deadline)
    {
        deadline_ = deadline;
        deadlineHit_ = false;
    }

    /** Disarm the deadline and clear the hit flag. */
    void
    clearDeadline()
    {
        deadline_ = kCycleMax;
        deadlineHit_ = false;
    }

    /** True iff the last run() parked because of the deadline (work
     *  was still pending at the budget cycle). */
    bool deadlineHit() const { return deadlineHit_; }

    /** Number of events executed so far (for micro-benchmarks). */
    std::uint64_t eventsExecuted() const { return eventsExecuted_; }

    /** Number of events currently pending across all tiers. */
    std::size_t pendingEvents() const;

    /**
     * Cumulative per-tier counters (for benchmarks). Every event is
     * filed in exactly one of ready, calendar and heap (a cascade
     * moves an event, it does not file a new one), so
     * ready + calendar + heap == eventsExecuted() + pendingEvents()
     * since construction or the last reset().
     */
    const TierStats &tierStats() const { return tierStats_; }

    // ---- Detached-root registry --------------------------------------
    //
    // Every detached root coroutine (spawnDetached/spawnFn wrappers —
    // simulated threads, writebacks, tone announcements) registers
    // its frame here. A root that runs to completion releases
    // its slot and self-destroys as before; reset() and ~Engine destroy
    // the frames still live, so tearing down (or reusing) an engine
    // mid-simulation cannot leak frames or the resources they own.
    // Frames parked in the event tiers as raw resume handles are
    // non-owning, so destroying the owner chain never double-frees.

    /** Reserve a registry slot (handle bound separately). */
    std::uint32_t reserveRoot();

    /** Bind the frame handle of a reserved slot. */
    void
    bindRoot(std::uint32_t slot, std::coroutine_handle<> h)
    {
        roots_[slot].handle = h.address();
    }

    /** A root ran to completion: forget it (frame self-destroys). */
    void
    releaseRoot(std::uint32_t slot)
    {
        roots_[slot].handle = nullptr;
        roots_[slot].next = rootFree_;
        rootFree_ = slot;
        --liveRoots_;
    }

    /** Destroy every live root frame (recursively tears down children). */
    void destroyLiveRoots();

    /** Registered roots that have not completed (for tests). */
    std::size_t liveRootCount() const { return liveRoots_; }

    /**
     * Return the engine to its post-construction state without
     * releasing its memory: destroys live root frames and pending
     * events, clears every tier, and zeroes time, sequence numbers and
     * counters. Pools (level-0 segments, ring, staging and far-heap
     * capacity) are retained, which is the point: a reset
     * engine schedules allocation-free from the first event. Must not
     * be called from inside run().
     */
    void reset();

  private:
    /**
     * One scheduled event: a trampoline, the 16 payload bytes it is
     * called with, and the insertion number. The payload holds the
     * callable itself or a frame address (resumeHandle). 32 bytes and
     * trivially copyable, so moving an event between tiers is a plain
     * copy.
     */
    struct Slot
    {
        void (*call)(void *);
        alignas(8) std::byte payload[kInlinePayload];
        std::uint64_t seq;

        void invoke() { call(payload); }
    };
    static_assert(sizeof(Slot) == 32 && std::is_trivially_copyable_v<Slot>,
                  "an event slot is 32 bytes and moves as a plain copy");

    /** Far-heap entries also need the cycle. */
    struct TimedSlot
    {
        Cycle when;
        Slot slot;
    };

    template <typename D>
    static constexpr bool fitsInline =
        sizeof(D) <= kInlinePayload && alignof(D) <= alignof(Slot) &&
        std::is_trivially_copyable_v<D>;

    template <typename D>
    static void
    runInline(void *p)
    {
        (*std::launder(reinterpret_cast<D *>(p)))();
    }

    static void
    resumeFrame(void *p)
    {
        void *frame;
        std::memcpy(&frame, p, sizeof(frame));
        std::coroutine_handle<>::from_address(frame).resume();
    }

    /** Build the slot for @p fn, stored inline. */
    template <typename F>
    static Slot
    makeSlot(F &&fn)
    {
        using D = std::decay_t<F>;
        static_assert(fitsInline<D>,
                      "an event callable is trivially copyable and fits "
                      "the 16-byte slot payload");
        Slot s;
        ::new (static_cast<void *>(s.payload)) D(std::forward<F>(fn));
        s.call = &runInline<D>;
        return s;
    }

    /** 256-bit occupancy bitmap with find-first-set-at-or-after. */
    struct Bitmap
    {
        std::array<std::uint64_t, 4> w{};

        void set(unsigned i) { w[i >> 6] |= std::uint64_t{1} << (i & 63); }
        void
        clear(unsigned i)
        {
            w[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
        }
        bool
        test(unsigned i) const
        {
            return (w[i >> 6] >> (i & 63)) & 1;
        }
        /** First set index >= from, or 256 if none. */
        unsigned next(unsigned from) const;
    };

    /**
     * Fixed-size block of level-0 slots. A bucket is a chain of these,
     * filled front to back in insertion order; every segment but the
     * tail is full. Drained segments go back to the engine's free
     * list, so level-0 storage tracks the events pending at once
     * rather than each bucket's busiest cycle.
     */
    struct Segment
    {
        static constexpr std::uint32_t kSlots = 32;

        std::array<Slot, kSlots> slots;
        Segment *next = nullptr;
        std::uint32_t size = 0;
    };

    /**
     * One level-0 bucket: a segment chain plus the last seq filed, so
     * an out-of-order insertion (a far-heap arrival, a later-cycle
     * scheduleReserved) is noticed when it happens rather than by a
     * scan at staging time.
     */
    struct Bucket
    {
        Segment *head = nullptr;
        Segment *tail = nullptr;
        std::uint64_t lastSeq = 0;
        std::uint32_t count = 0;
        bool unsorted = false;
    };

    /** Growable power-of-two FIFO ring of same-cycle events. */
    class ReadyRing
    {
      public:
        bool empty() const { return size_ == 0; }
        std::size_t size() const { return size_; }

        /** Forget every event; the buffer keeps its capacity. */
        void
        clear()
        {
            head_ = 0;
            size_ = 0;
        }

        void
        push(const Slot &s)
        {
            if (size_ == buf_.size())
                grow();
            buf_[(head_ + size_) & (buf_.size() - 1)] = s;
            ++size_;
        }

        Slot
        pop()
        {
            const Slot s = buf_[head_];
            head_ = (head_ + 1) & (buf_.size() - 1);
            --size_;
            return s;
        }

      private:
        void grow();

        std::vector<Slot> buf_;
        std::size_t head_ = 0;
        std::size_t size_ = 0;
    };

    /** Min-heap order by (when, seq) via std::push_heap/pop_heap. */
    struct FarLater
    {
        bool
        operator()(const TimedSlot &a, const TimedSlot &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.slot.seq > b.slot.seq;
        }
    };

    /** Classify + insert. Inline so the ring fast path costs no call. */
    void
    scheduleSlot(Cycle when, Slot s)
    {
        assert(when >= now_ && "cannot schedule an event in the past");
        s.seq = nextSeq_++;
        if (when == now_) {
            // Same-cycle: FIFO ring, behind everything staged for this
            // cycle (all of which was scheduled earlier).
            ready_.push(s);
            ++tierStats_.ready;
            return;
        }
        place(when, s);
    }

    /**
     * File @p s under the right tier for target cycle @p when > now.
     * Inline for the level-0 case (the dominant non-ring one: wireless
     * slots, mesh hops, cache latencies); the far case stays out of
     * line, since inlining push_heap into every scheduling call site
     * costs more than the rare far event saves.
     */
    void
    place(Cycle when, const Slot &s)
    {
        if (when - now_ < kCalendarHorizon) {
            fileLevel0(when, s);
            ++tierStats_.calendar;
            return;
        }
        placeFar(when, s);
    }

    /** Append @p s to the level-0 bucket of @p when (in the window). */
    void
    fileLevel0(Cycle when, const Slot &s)
    {
        const unsigned idx = static_cast<unsigned>(when & 255);
        Bucket &b = l0_[idx];
        Segment *t = b.tail;
        if (t == nullptr || t->size == Segment::kSlots) [[unlikely]]
            t = appendSegment(b);
        if (s.seq < b.lastSeq)
            b.unsorted = true;
        b.lastSeq = s.seq;
        t->slots[t->size++] = s;
        ++b.count;
        l0Bits_.set(idx);
        ++l0Count_;
    }

    /** Slow tail of place(): push onto the far heap. */
    void placeFar(Cycle when, const Slot &s);

    /** Out-of-line body of scheduleReserved(). */
    void fileReserved(Cycle when, std::uint64_t seq, Slot s);

    /** Link a segment (free list first) onto @p b's tail. */
    Segment *appendSegment(Bucket &b);

    /** Return a drained segment to the free list. */
    void
    recycleSegment(Segment *seg)
    {
        seg->size = 0;
        seg->next = freeSegs_;
        freeSegs_ = seg;
    }

    /** Recycle every segment of the chain starting at @p seg,
     *  forgetting the events left in it. */
    void releaseChain(Segment *seg);

    /**
     * Move the events of the chain starting at slot @p from of @p seg
     * into staged_ (to be sorted or spliced into), and recycle every
     * segment of it.
     */
    void moveChainToStaging(Segment *seg, std::uint32_t from);

    /** Forget every pending event in every tier (reset, ~Engine). */
    void dropPending();

    /** Earliest pending cycle > now across all tiers (kCycleMax: none). */
    Cycle peekNext() const;

    /**
     * With now_ just advanced to the next busy cycle: move far-heap
     * events due now into level 0 and point the drain cursor at this
     * cycle's bucket (or, if its seqs are out of order, sort it into
     * staged_).
     */
    void stageCurrentCycle();

    // Tier 1: same-cycle ring + the level-0 bucket being executed.
    // Staging detaches the bucket's segment chain and drains it in
    // place through (curSeg_, curIdx_). Ordinary scheduling can never
    // insert into the staged cycle (same-cycle events go to the ring;
    // the same index one window later is 256 cycles out, so it goes to
    // the far heap).
    // Two rare cases drain from the staged_ vector instead: a bucket
    // filed out of seq order, which is sorted there, and
    // scheduleReserved() materializing a same-cycle deferred event,
    // which moves the undrained remainder there and splices into it.
    // Both drain loops move each slot out before invoking it, so a
    // splice from inside a callback is safe.
    ReadyRing ready_;
    Segment *curSeg_ = nullptr;
    std::uint32_t curIdx_ = 0;
    std::vector<Slot> staged_; // non-empty: the staged cycle drains here
    std::size_t stagedIdx_ = 0;

    // Tier 2: level 0, one bucket per cycle over the sliding window
    // [now_, now_ + 256) (bucket index = when & 255). The window holds
    // 256 consecutive cycles, so every resident's target cycle is
    // implied by its index relative to now_'s.
    std::array<Bucket, 256> l0_;
    Bitmap l0Bits_;
    std::size_t l0Count_ = 0;
    Segment *freeSegs_ = nullptr; // shared by every level-0 bucket

    // Tier 3: far (when, seq) min-heap for events kCalendarHorizon or
    // more cycles out.
    std::vector<TimedSlot> far_;

    // Detached-root registry: slot-map with an intrusive free list.
    struct RootSlot
    {
        void *handle = nullptr;
        std::uint32_t next = 0xffffffffu;
    };
    static constexpr std::uint32_t kNilRoot = 0xffffffffu;
    std::vector<RootSlot> roots_;
    std::uint32_t rootFree_ = kNilRoot;
    std::size_t liveRoots_ = 0;

    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t currentSeq_ = 0;
    std::uint64_t eventsExecuted_ = 0;
    bool stopped_ = false;
    Cycle deadline_ = kCycleMax;
    bool deadlineHit_ = false;
    TierStats tierStats_;
};

} // namespace wisync::sim

#endif // WISYNC_SIM_ENGINE_HH
