#include "sim/engine.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace wisync::sim {

Engine::~Engine()
{
    // Live detached roots first (their teardown may touch the ready
    // ring), then the events still pending in every tier.
    destroyLiveRoots();
    dropPending();
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
Engine::releaseChain(Segment *seg)
{
    while (seg != nullptr)
        recycleSegment(std::exchange(seg, seg->next));
}

void
Engine::moveChainToStaging(Segment *seg, std::uint32_t from)
{
    while (seg != nullptr) {
        for (std::uint32_t i = from; i < seg->size; ++i)
            staged_.push_back(seg->slots[i]);
        from = 0;
        recycleSegment(std::exchange(seg, seg->next));
    }
}

std::size_t
Engine::pendingEvents() const
{
    std::size_t staged = staged_.size() - stagedIdx_;
    for (const Segment *seg = curSeg_; seg != nullptr; seg = seg->next)
        staged += seg->size - (seg == curSeg_ ? curIdx_ : 0);
    return ready_.size() + staged + l0Count_ + far_.size();
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
    // waiter in a delta-0 event — which only *stores* events in the
    // ready ring; nothing runs here, and the caller clears
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
Engine::dropPending()
{
    ready_.clear();
    releaseChain(curSeg_);
    curSeg_ = nullptr;
    curIdx_ = 0;
    staged_.clear();
    stagedIdx_ = 0;
    if (l0Count_ > 0)
        for (Bucket &b : l0_) {
            releaseChain(b.head);
            b = Bucket{};
        }
    l0Bits_ = Bitmap{};
    l0Count_ = 0;
    far_.clear();
}

void
Engine::reset()
{
    destroyLiveRoots(); // may push unlock handoffs into ready_
    dropPending();
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
Engine::fileReserved(Cycle when, std::uint64_t seq, Slot s)
{
    assert(when >= now_ && "cannot schedule a reserved event in the past");
    s.seq = seq;
    if (when > now_) {
        // A later cycle: normal placement. The level-0 bucket list may
        // now be seq-unordered; stageCurrentCycle()'s sort restores
        // global insertion order before execution.
        place(when, s);
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
    staged_.insert(it, s);
    ++tierStats_.calendar; // it runs from the level-0 bucket's drain
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
        next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    buf_ = std::move(next);
    head_ = 0;
}

void
Engine::placeFar(Cycle when, const Slot &s)
{
    far_.push_back(TimedSlot{when, s});
    std::push_heap(far_.begin(), far_.end(), FarLater{});
    ++tierStats_.heap;
}

Cycle
Engine::peekNext() const
{
    // Level-0 residents all lie in (now_, now_ + 256) and the bucket at
    // now_'s own index is empty, so the first occupied bucket after it,
    // wrapping once past index 255, holds the earliest of them.
    Cycle best = kCycleMax;
    if (l0Count_ > 0) {
        const unsigned cur = static_cast<unsigned>(now_ & 255);
        assert(!l0Bits_.test(cur) && "level-0 resident at the current cycle");
        Cycle base = now_ & ~Cycle{255};
        unsigned b = l0Bits_.next(cur + 1);
        if (b == 256) {
            b = l0Bits_.next(0);
            base += 256;
        }
        assert(b < 256 && "level-0 count without an occupied bucket");
        best = base + b;
    }
    if (!far_.empty() && far_.front().when < best)
        best = far_.front().when;
    return best;
}

void
Engine::stageCurrentCycle()
{
    // Far events due now join this cycle's bucket behind anything filed
    // there directly; if that breaks seq order, the bucket's unsorted
    // flag sends it through the sort below. Each far event moves once.
    while (!far_.empty() && far_.front().when == now_) {
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        fileLevel0(now_, far_.back().slot);
        far_.pop_back();
        ++tierStats_.cascades;
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
        // A far-heap arrival (or a later-cycle reserved seq) broke
        // insertion order; restore it in staged_.
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
            // Copy the slot out before invoking: the callback may
            // splice a same-cycle reserved event (scheduleReserved),
            // which moves the rest of the chain to staged_ and
            // recycles seg.
            Slot s = seg->slots[curIdx_++];
            ++eventsExecuted_;
            currentSeq_ = s.seq;
            s.invoke();
            if (stopped_)
                return pendingEvents() == 0;
        }
        if (!staged_.empty()) {
            while (stagedIdx_ < staged_.size()) {
                // Copied out for the same reason: a splice may
                // reallocate staged_.
                Slot s = staged_[stagedIdx_++];
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
            // pending events stay in their tiers. Parking never passes
            // a pending event (effective < next), so every level-0
            // resident still lies in the window [now_, now_ + 256)
            // and keeps its bucket. A park
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
