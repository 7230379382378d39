#include "wireless/tone_channel.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace wisync::wireless {

ToneChannel::ToneChannel(sim::Engine &engine, std::uint32_t num_nodes,
                         std::uint32_t alloc_slots)
    : engine_(engine), numNodes_(num_nodes), allocSlots_(alloc_slots)
{
    allocB_.resize(allocSlots_);
}

void
ToneChannel::reset()
{
    for (auto &b : allocB_)
        b = Barrier{};
    activeOrder_.clear();
    slotIdx_ = 0;
    ticking_ = false;
    stats_.reset();
}

ToneChannel::Barrier *
ToneChannel::find(sim::BmAddr addr)
{
    for (auto &b : allocB_)
        if (b.used && b.addr == addr)
            return &b;
    return nullptr;
}

const ToneChannel::Barrier *
ToneChannel::find(sim::BmAddr addr) const
{
    for (const auto &b : allocB_)
        if (b.used && b.addr == addr)
            return &b;
    return nullptr;
}

bool
ToneChannel::alloc(sim::BmAddr addr, std::vector<bool> armed)
{
    WISYNC_ASSERT(armed.size() == numNodes_, "armed bitmap size mismatch");
    WISYNC_ASSERT(find(addr) == nullptr, "tone barrier already allocated");
    for (auto &b : allocB_) {
        if (b.used)
            continue;
        b.used = true;
        b.addr = addr;
        b.active = false;
        b.armed = std::move(armed);
        b.arrived.assign(numNodes_, false);
        b.pendingArrival.assign(numNodes_, false);
        return true;
    }
    return false; // AllocB overflow: caller falls back to Data barrier
}

void
ToneChannel::dealloc(sim::BmAddr addr)
{
    Barrier *b = find(addr);
    if (!b)
        return;
    WISYNC_ASSERT(!b->active, "deallocating an active tone barrier");
    b->used = false;
    // Paper: entries below the removed one shift up; slot order is the
    // array order of `used` entries, so clearing the flag suffices.
}

bool
ToneChannel::isAllocated(sim::BmAddr addr) const
{
    return find(addr) != nullptr;
}

bool
ToneChannel::isActive(sim::BmAddr addr) const
{
    const Barrier *b = find(addr);
    return b && b->active;
}

std::uint64_t
ToneChannel::epochOf(sim::BmAddr addr) const
{
    const Barrier *b = find(addr);
    return b ? b->epoch : 0;
}

bool
ToneChannel::isArmed(sim::BmAddr addr, sim::NodeId node) const
{
    const Barrier *b = find(addr);
    return b && b->armed[node];
}

bool
ToneChannel::anyArmedOn(sim::NodeId node) const
{
    for (const auto &b : allocB_)
        if (b.used && b.armed[node])
            return true;
    return false;
}

bool
ToneChannel::needsAnnouncement(sim::BmAddr addr) const
{
    const Barrier *b = find(addr);
    WISYNC_ASSERT(b, "tone_st on unallocated tone barrier");
    return !b->active;
}

void
ToneChannel::activate(sim::BmAddr addr)
{
    Barrier *b = find(addr);
    WISYNC_ASSERT(b, "activation for unallocated tone barrier");
    if (b->active)
        return; // redundant announcement (several "first" arrivals)
    b->active = true;
    stats_.activations.inc();
    // Arrivals that raced the announcement count immediately.
    b->arrived = b->pendingArrival;
    b->toneCount = 0;
    for (std::uint32_t n = 0; n < numNodes_; ++n)
        if (b->armed[n] && !b->arrived[n])
            ++b->toneCount;
    b->pendingArrival.assign(numNodes_, false);
    activeOrder_.push_back(static_cast<std::size_t>(b - allocB_.data()));
    stats_.concurrentActive.sample(
        static_cast<double>(activeOrder_.size()));
    startTickerIfNeeded();
}

void
ToneChannel::arrive(sim::BmAddr addr, sim::NodeId node)
{
    Barrier *b = find(addr);
    WISYNC_ASSERT(b, "arrival on unallocated tone barrier");
    WISYNC_ASSERT(b->armed[node], "arrival from unarmed node");
    if (!b->active) {
        b->pendingArrival[node] = true;
    } else if (!b->arrived[node]) {
        b->arrived[node] = true;
        --b->toneCount;
    }
}

std::uint32_t
ToneChannel::allocatedCount() const
{
    return static_cast<std::uint32_t>(
        std::count_if(allocB_.begin(), allocB_.end(),
                      [](const Barrier &b) { return b.used; }));
}

void
ToneChannel::scheduleTick()
{
    engine_.scheduleIn(1, [this] { tick(); });
}

void
ToneChannel::startTickerIfNeeded()
{
    if (ticking_)
        return;
    ticking_ = true;
    scheduleTick();
}

void
ToneChannel::tick()
{
    if (activeOrder_.empty()) {
        ticking_ = false;
        return;
    }
    stats_.slotCycles.inc();
    slotIdx_ %= activeOrder_.size();
    Barrier &b = allocB_[activeOrder_[slotIdx_]];

    if (b.toneCount == 0) {
        // Silence on this barrier's slot: everyone has arrived. All
        // nodes remove the entry and toggle the BM word (the release
        // handler), in the same slot, chip-consistently.
        const sim::BmAddr addr = b.addr;
        b.active = false;
        ++b.epoch;
        b.arrived.assign(numNodes_, false);
        activeOrder_.erase(activeOrder_.begin() +
                           static_cast<std::ptrdiff_t>(slotIdx_));
        stats_.releases.inc();
        if (releaseHandler_)
            releaseHandler_(releaseCtx_, addr);
        // Do not advance slotIdx_: the next entry shifted into place.
    } else {
        ++slotIdx_;
    }
    scheduleTick();
}

} // namespace wisync::wireless
