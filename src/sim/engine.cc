#include "sim/engine.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>
#include <utility>

namespace wisync::sim {

namespace {

/**
 * Process-wide recycler for pool chunks. glibc returns large freed
 * blocks to the OS; benchmark/test patterns that build and tear down
 * engines in a loop would then re-fault the same pages every iteration
 * (~150 minor faults per 10k-event engine, measured). Keeping a capped
 * stack of retired chunks makes engine churn allocation-free after the
 * first engine. The simulator is single-threaded by design, but the
 * cache is thread-local so concurrent engines in test harnesses stay
 * independent.
 */
class ChunkCache
{
  public:
    static constexpr std::size_t kMaxChunks = 128; // ~6 MiB cap

    ~ChunkCache()
    {
        for (std::byte *c : chunks_)
            ::operator delete(c);
    }

    std::byte *
    get(std::size_t bytes)
    {
        if (!chunks_.empty()) {
            std::byte *c = chunks_.back();
            chunks_.pop_back();
            return c;
        }
        return static_cast<std::byte *>(::operator new(bytes));
    }

    void
    put(std::byte *c)
    {
        if (chunks_.size() < kMaxChunks)
            chunks_.push_back(c);
        else
            ::operator delete(c);
    }

  private:
    std::vector<std::byte *> chunks_;
};

thread_local ChunkCache g_chunkCache;

} // namespace

std::uint32_t
Engine::NodePool::make(Cycle when, Slot &&s, std::uint32_t next)
{
    std::uint32_t i;
    if (freeHead_ != kNil) {
        i = freeHead_;
        std::memcpy(&freeHead_, at(i), sizeof(freeHead_));
    } else {
        if (top_ == chunks_.size() * kChunkEntries)
            chunks_.push_back(
                g_chunkCache.get(kChunkEntries * sizeof(Node)));
        i = top_++;
    }
    ::new (static_cast<void *>(at(i))) Node(when, std::move(s), next);
    return i;
}

Engine::NodePool::~NodePool()
{
    // Live nodes were already destroyed by ~Engine(); hand the raw
    // chunks back for the next engine.
    for (std::byte *c : chunks_)
        g_chunkCache.put(c);
}

Engine::~Engine()
{
    // Live detached roots first (their teardown may touch the ready
    // ring), then events still pending in the wheels and level-0
    // segments (the ring, staged_ and far_ clean up via their
    // vectors).
    destroyLiveRoots();
    clearWheel(l1_);
    clearWheel(l2_);
    clearLevel0();
    while (freeSegs_ != nullptr)
        delete std::exchange(freeSegs_, freeSegs_->next);
}

Engine::Segment *
Engine::appendSegment(Bucket &b)
{
    Segment *seg = freeSegs_;
    if (seg != nullptr)
        freeSegs_ = seg->next;
    else
        seg = new Segment;
    seg->next = nullptr;
    if (b.tail != nullptr)
        b.tail->next = seg;
    else
        b.head = seg;
    b.tail = seg;
    return seg;
}

void
Engine::releaseChain(Segment *seg, std::uint32_t from)
{
    while (seg != nullptr) {
        for (std::uint32_t i = from; i < seg->size; ++i)
            seg->slots[i] = Slot{};
        from = 0;
        recycleSegment(std::exchange(seg, seg->next));
    }
}

void
Engine::moveChainToStaging(Segment *seg, std::uint32_t from)
{
    while (seg != nullptr) {
        for (std::uint32_t i = from; i < seg->size; ++i)
            staged_.push_back(std::move(seg->slots[i]));
        from = 0;
        recycleSegment(std::exchange(seg, seg->next));
    }
}

void
Engine::clearLevel0()
{
    releaseChain(curSeg_, curIdx_);
    curSeg_ = nullptr;
    curIdx_ = 0;
    staged_.clear();
    stagedIdx_ = 0;
    if (l0Count_ > 0)
        for (Bucket &b : l0_) {
            releaseChain(b.head, 0);
            b = Bucket{};
        }
    l0Bits_ = Bitmap{};
    l0Count_ = 0;
}

std::size_t
Engine::pendingEvents() const
{
    std::size_t staged = staged_.size() - stagedIdx_;
    for (const Segment *seg = curSeg_; seg != nullptr; seg = seg->next)
        staged += seg->size - (seg == curSeg_ ? curIdx_ : 0);
    return ready_.size() + staged + l0Count_ + l1_.count + l2_.count +
           far_.size();
}

std::uint32_t
Engine::reserveRoot()
{
    std::uint32_t i;
    if (rootFree_ != kNilRoot) {
        i = rootFree_;
        rootFree_ = roots_[i].next;
    } else {
        i = static_cast<std::uint32_t>(roots_.size());
        roots_.push_back(RootSlot{});
    }
    roots_[i].handle = nullptr;
    roots_[i].next = kNilRoot;
    ++liveRoots_;
    return i;
}

void
Engine::destroyLiveRoots()
{
    // Destroying a root tears down its whole child chain (awaited Task
    // members live in frame locals). Destructors in those frames may
    // release model resources — e.g. a lock guard handing a mutex to a
    // waiter via resumeHandle(0, ...) — which only *stores* handles in
    // the ready ring; nothing is resumed here, and the caller clears
    // the tiers afterwards (reset) or destroys them (~Engine).
    for (std::size_t i = 0; i < roots_.size(); ++i) {
        if (roots_[i].handle == nullptr)
            continue;
        auto h = std::coroutine_handle<>::from_address(roots_[i].handle);
        roots_[i].handle = nullptr;
        h.destroy();
    }
    roots_.clear();
    rootFree_ = kNilRoot;
    liveRoots_ = 0;
}

void
Engine::clearWheel(Wheel &w)
{
    if (w.count != 0) {
        for (unsigned idx = w.bits.next(0); idx < 256;
             idx = w.bits.next(idx + 1)) {
            for (std::uint32_t i = w.head[idx]; i != NodePool::kNil;) {
                const std::uint32_t next = pool_.at(i)->next;
                pool_.recycle(i);
                i = next;
            }
        }
    }
    w.bits = Bitmap{};
    w.count = 0;
}

void
Engine::reset()
{
    destroyLiveRoots(); // may push unlock handoffs into ready_
    while (!ready_.empty())
        (void)ready_.pop();
    clearLevel0();
    clearWheel(l1_);
    clearWheel(l2_);
    far_.clear();
    now_ = 0;
    nextSeq_ = 0;
    currentSeq_ = 0;
    eventsExecuted_ = 0;
    stopped_ = false;
    deadline_ = kCycleMax;
    deadlineHit_ = false;
    tierStats_ = TierStats{};
}

void
Engine::scheduleReserved(Cycle when, std::uint64_t seq, UniqueFunction fn)
{
    assert(when >= now_ && "cannot schedule a reserved event in the past");
    Slot s{std::move(fn), nullptr, 0};
    s.seq = seq;
    if (when > now_) {
        // A later cycle: normal placement. The level-0 bucket list may
        // now be seq-unordered; stageCurrentCycle()'s sort restores
        // global insertion order before execution.
        place(when, std::move(s), /*cascade=*/false);
        return;
    }
    // Same cycle: the slot's reserved seq is ahead of the event being
    // executed (callers materialize from inside an event that checked
    // currentSeq() < seq), so it belongs in the undrained tail of the
    // staged bucket. Ready-ring events all carry seqs assigned this
    // cycle — necessarily above any reserved-at-an-earlier-cycle seq —
    // so this situation can only arise mid-stage. The segment chain
    // cannot take an insertion, so its remainder moves to staged_.
    assert((curSeg_ != nullptr || !staged_.empty()) && seq > currentSeq_ &&
           "same-cycle reserved event outside the staged drain");
    if (staged_.empty()) {
        moveChainToStaging(curSeg_, curIdx_);
        curSeg_ = nullptr;
        curIdx_ = 0;
    }
    auto it = staged_.begin() + static_cast<std::ptrdiff_t>(stagedIdx_);
    while (it != staged_.end() && it->seq < seq)
        ++it;
    staged_.insert(it, std::move(s));
}

unsigned
Engine::Bitmap::next(unsigned from) const
{
    if (from >= 256)
        return 256;
    unsigned word = from >> 6;
    std::uint64_t m = w[word] & (~std::uint64_t{0} << (from & 63));
    for (;;) {
        if (m != 0)
            return (word << 6) +
                   static_cast<unsigned>(std::countr_zero(m));
        if (++word == 4)
            return 256;
        m = w[word];
    }
}

void
Engine::ReadyRing::grow()
{
    const std::size_t cap = buf_.empty() ? 64 : buf_.size() * 2;
    std::vector<Slot> next(cap);
    for (std::size_t i = 0; i < size_; ++i)
        next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    buf_ = std::move(next);
    head_ = 0;
}

void
Engine::placeCoarse(Cycle when, Slot &&s, Cycle diff, bool cascade)
{
    // Levels are windows aligned on power-of-two boundaries (not fixed
    // distances): an event lands in the finest level whose window
    // around now_ contains it, and cascades down as now_ enters its
    // block. The XOR against now_ (diff) tests window membership.
    Wheel *w = nullptr;
    unsigned idx = 0;
    if (diff < (Cycle{1} << 16)) {
        w = &l1_;
        idx = static_cast<unsigned>((when >> 8) & 255);
    } else if (diff < kWheelSpan) {
        w = &l2_;
        idx = static_cast<unsigned>((when >> 16) & 255);
    }
    if (w != nullptr) {
        const std::uint32_t i =
            pool_.make(when, std::move(s), NodePool::kNil);
        if (w->bits.test(idx)) {
            pool_.at(w->tail[idx])->next = i;
            w->tail[idx] = i;
            if (when < w->minWhen[idx])
                w->minWhen[idx] = when;
        } else {
            w->bits.set(idx);
            w->head[idx] = w->tail[idx] = i;
            w->minWhen[idx] = when;
        }
        ++w->count;
        if (!cascade)
            ++tierStats_.calendar;
        return;
    }
    far_.emplace_back(when, std::move(s));
    std::push_heap(far_.begin(), far_.end(), FarLater{});
    if (!cascade)
        ++tierStats_.heap;
}

Cycle
Engine::peekNext() const
{
    // Candidates per tier. For the coarse wheels the first occupied
    // bucket at or after now_'s own index holds the level's earliest
    // cycles (buckets cover increasing disjoint ranges and never wrap
    // within a window), so one bitmap scan plus its tracked minimum
    // suffices. now_'s own bucket can be non-empty after a run(limit)
    // parked time inside a block, hence the inclusive scan.
    Cycle best = kCycleMax;
    if (l0Count_ > 0) {
        const unsigned b =
            l0Bits_.next(static_cast<unsigned>(now_ & 255) + 1);
        if (b < 256)
            best = (now_ & ~Cycle{255}) + b;
    }
    if (l1_.count > 0) {
        const unsigned i1 =
            l1_.bits.next(static_cast<unsigned>((now_ >> 8) & 255));
        if (i1 < 256 && l1_.minWhen[i1] < best)
            best = l1_.minWhen[i1];
    }
    if (l2_.count > 0) {
        const unsigned i2 =
            l2_.bits.next(static_cast<unsigned>((now_ >> 16) & 255));
        if (i2 < 256 && l2_.minWhen[i2] < best)
            best = l2_.minWhen[i2];
    }
    if (!far_.empty() && far_.front().when < best)
        best = far_.front().when;
    return best;
}

void
Engine::cascadeWheelBucket(Wheel &w, unsigned idx)
{
    // Walk the FIFO list in insertion order so re-placed events keep
    // their relative order within each destination bucket.
    w.bits.clear(idx);
    for (std::uint32_t i = w.head[idx]; i != NodePool::kNil;) {
        Node *n = pool_.at(i);
        const std::uint32_t next = n->next;
        --w.count;
        place(n->ts.when, std::move(n->ts.slot), /*cascade=*/true);
        pool_.recycle(i);
        i = next;
    }
}

void
Engine::stageCurrentCycle()
{
    // Coarse-to-fine: pull overflow events whose 2^24 window now_ just
    // entered, then cascade the level-2 and level-1 buckets covering
    // now_. Each step may feed the next; every event due exactly at
    // now_ ends in l0_[now_ & 255].
    while (!far_.empty() && ((far_.front().when ^ now_) < kWheelSpan)) {
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        TimedSlot e = std::move(far_.back());
        far_.pop_back();
        place(e.when, std::move(e.slot), /*cascade=*/true);
    }
    if (l2_.count > 0) {
        const unsigned i2 = static_cast<unsigned>((now_ >> 16) & 255);
        if (l2_.bits.test(i2))
            cascadeWheelBucket(l2_, i2);
    }
    if (l1_.count > 0) {
        const unsigned i1 = static_cast<unsigned>((now_ >> 8) & 255);
        if (l1_.bits.test(i1))
            cascadeWheelBucket(l1_, i1);
    }

    const unsigned idx = static_cast<unsigned>(now_ & 255);
    assert(l0Bits_.test(idx) && "advanced to a cycle with no events");
    Bucket &b = l0_[idx];
    l0Bits_.clear(idx);
    l0Count_ -= b.count;
    curIdx_ = 0;
    if (!b.unsorted) {
        curSeg_ = b.head;
    } else {
        // Cascading (or a later-cycle reserved seq) interleaved
        // provenances; restore global insertion order in staged_.
        moveChainToStaging(b.head, 0);
        std::sort(staged_.begin(), staged_.end(),
                  [](const Slot &x, const Slot &y) { return x.seq < y.seq; });
    }
    b = Bucket{};
}

bool
Engine::run(Cycle limit)
{
    stopped_ = false;
    for (;;) {
        // Drain the staged bucket for the current cycle, then the ring
        // (same-cycle arrivals, which were inserted later than anything
        // staged).
        while (curSeg_ != nullptr) {
            Segment *seg = curSeg_;
            if (curIdx_ == seg->size) {
                curSeg_ = seg->next;
                curIdx_ = 0;
                recycleSegment(seg);
                continue;
            }
            // Move the slot out before invoking: the callback may
            // splice a same-cycle reserved event (scheduleReserved),
            // which moves the rest of the chain to staged_ and
            // recycles seg.
            Slot s = std::move(seg->slots[curIdx_++]);
            ++eventsExecuted_;
            currentSeq_ = s.seq;
            s.invoke();
            if (stopped_)
                return pendingEvents() == 0;
        }
        if (!staged_.empty()) {
            while (stagedIdx_ < staged_.size()) {
                // Moved out for the same reason: a splice may
                // reallocate staged_.
                Slot s = std::move(staged_[stagedIdx_++]);
                ++eventsExecuted_;
                currentSeq_ = s.seq;
                s.invoke();
                if (stopped_)
                    return pendingEvents() == 0;
            }
            staged_.clear(); // keeps capacity for reuse
            stagedIdx_ = 0;
        }
        while (!ready_.empty()) {
            Slot s = ready_.pop();
            ++eventsExecuted_;
            currentSeq_ = s.seq;
            s.invoke();
            if (stopped_)
                return pendingEvents() == 0;
        }
        const Cycle next = peekNext();
        if (next == kCycleMax && pendingEvents() == 0)
            return true;
        const Cycle effective = limit < deadline_ ? limit : deadline_;
        if (next > effective) {
            // Park at the effective limit so a later run() can resume;
            // pending events stay in their tiers. Parking never
            // crosses a window boundary ahead of a pending event
            // (effective < next), so the wheel invariants hold. A park
            // forced by the deadline (not the caller's limit) is
            // flagged so the service layer can distinguish "budget
            // exhausted" from "workload's own horizon".
            if (effective == deadline_)
                deadlineHit_ = true;
            if (effective > now_)
                now_ = effective;
            return false;
        }
        now_ = next;
        stageCurrentCycle();
    }
}

} // namespace wisync::sim
