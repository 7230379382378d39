#include "sync/baseline_sync.hh"

#include <bit>

#include "sim/logging.hh"

namespace wisync::sync {

namespace {

/** One 64-byte line per variable to avoid false sharing. */
sim::Addr
allocLine(core::Machine &m)
{
    return m.allocMem(64, 64);
}

} // namespace

// ---------------------------------------------------------------- TasLock

TasLock::TasLock(core::Machine &m) : lockAddr_(allocLine(m)) {}

coro::Task<void>
TasLock::acquire(core::ThreadCtx &ctx)
{
    for (;;) {
        // Test-and-test-and-set: spin on the cached copy first.
        co_await ctx.spinUntil(lockAddr_, 0);
        const auto r = co_await ctx.cas(lockAddr_, 0, 1);
        if (r.success)
            co_return;
    }
}

coro::Task<void>
TasLock::release(core::ThreadCtx &ctx)
{
    co_await ctx.store(lockAddr_, 0);
}

// --------------------------------------------------------- CentralBarrier

CentralBarrier::CentralBarrier(core::Machine &m, std::uint32_t participants)
    : participants_(participants), countAddr_(allocLine(m)),
      releaseAddr_(allocLine(m)), senses_(m)
{
    WISYNC_ASSERT(participants > 0, "empty barrier");
}

coro::Task<void>
CentralBarrier::wait(core::ThreadCtx &ctx)
{
    const std::uint64_t sense = senses_.flip(ctx.tid());

    // Baseline has only CAS: bump the counter with a CAS retry loop.
    std::uint64_t arrived;
    for (;;) {
        const std::uint64_t cur = co_await ctx.load(countAddr_);
        const auto r = co_await ctx.cas(countAddr_, cur, cur + 1);
        if (r.success) {
            arrived = cur + 1;
            break;
        }
    }

    if (arrived == participants_) {
        co_await ctx.store(countAddr_, 0);
        co_await ctx.store(releaseAddr_, sense);
    } else {
        co_await ctx.spinUntil(releaseAddr_, sense);
    }
}

// ---------------------------------------------------------------- McsLock

McsLock::McsLock(core::Machine &m)
    : machine_(m), tailAddr_(allocLine(m)), qnodes_(m)
{}

McsLock::QNode
McsLock::nodeFor(core::ThreadCtx &ctx)
{
    QNode &qn = qnodes_[ctx.tid()];
    if (qn.base == 0) {
        qn.base = machine_.allocMem(64, 64);
        qn.nextAddr = qn.base;
        qn.lockedAddr = qn.base + 8;
    }
    return qn;
}

coro::Task<void>
McsLock::acquire(core::ThreadCtx &ctx)
{
    const QNode my = nodeFor(ctx);
    co_await ctx.store(my.nextAddr, 0);
    // Enqueue at the tail; the previous value identifies our
    // predecessor's qnode (0 = lock was free).
    const std::uint64_t pred = co_await ctx.swap(tailAddr_, my.base);
    if (pred == 0)
        co_return; // uncontended
    co_await ctx.store(my.lockedAddr, 1);
    co_await ctx.store(pred /* pred.nextAddr == base */, my.base);
    // Spin on our own line only (the MCS property).
    co_await ctx.spinUntil(my.lockedAddr, 0);
}

coro::Task<void>
McsLock::release(core::ThreadCtx &ctx)
{
    const QNode my = nodeFor(ctx);
    const std::uint64_t next = co_await ctx.load(my.nextAddr);
    if (next == 0) {
        // No known successor: try to swing the tail back to empty.
        const auto r = co_await ctx.cas(tailAddr_, my.base, 0);
        if (r.success)
            co_return;
        // A successor is mid-enqueue; wait for it to link itself.
        co_await ctx.spinWhile(my.nextAddr, 0);
    }
    const std::uint64_t successor = co_await ctx.load(my.nextAddr);
    co_await ctx.store(successor + 8 /* lockedAddr */, 0);
}

// ------------------------------------------------------ TournamentBarrier

TournamentBarrier::TournamentBarrier(core::Machine &m,
                                     std::uint32_t participants)
    : participants_(participants), senses_(m), slots_(m, kNoSlot)
{
    WISYNC_ASSERT(participants > 0, "empty barrier");
    rounds_ = participants_ <= 1
                  ? 0
                  : static_cast<std::uint32_t>(
                        std::bit_width(participants_ - 1));
    // One line per (slot, round) arrival flag plus one wake line/slot.
    arriveBase_ = m.allocMem(static_cast<std::uint64_t>(participants_) *
                                 (rounds_ ? rounds_ : 1) * 64,
                             64);
    wakeBase_ =
        m.allocMem(static_cast<std::uint64_t>(participants_) * 64, 64);
}

sim::Addr
TournamentBarrier::arriveFlag(std::uint32_t slot, std::uint32_t round) const
{
    return arriveBase_ +
           (static_cast<sim::Addr>(round) * participants_ + slot) * 64;
}

sim::Addr
TournamentBarrier::wakeFlag(std::uint32_t slot) const
{
    return wakeBase_ + static_cast<sim::Addr>(slot) * 64;
}

coro::Task<void>
TournamentBarrier::wait(core::ThreadCtx &ctx)
{
    std::uint32_t &slot_of = slots_[ctx.tid()];
    if (slot_of == kNoSlot)
        slot_of = nextSlot_++;
    const std::uint32_t slot = slot_of;
    WISYNC_ASSERT(slot < participants_, "more waiters than participants");

    const std::uint64_t my_sense = senses_.flip(ctx.tid());

    // Arrival: at round r, slots that are multiples of 2^(r+1) win;
    // the loser at distance 2^r signals its winner and blocks on its
    // own wake line.
    std::uint32_t lost_round = rounds_; // champion unless we lose
    for (std::uint32_t r = 0; r < rounds_; ++r) {
        const std::uint32_t stride = 1u << (r + 1);
        const std::uint32_t half = 1u << r;
        if (slot % stride == 0) {
            const std::uint32_t partner = slot + half;
            if (partner < participants_) {
                co_await ctx.spinUntil(arriveFlag(partner, r), my_sense);
            }
            // A bye (no partner) advances directly.
        } else {
            co_await ctx.store(arriveFlag(slot, r), my_sense);
            co_await ctx.spinUntil(wakeFlag(slot), my_sense);
            lost_round = r;
            break;
        }
    }

    // Wakeup tree: wake each loser we beat, top round first; they
    // recursively wake the subtrees they beat.
    for (std::uint32_t r = lost_round; r-- > 0;) {
        const std::uint32_t partner = slot + (1u << r);
        if (partner < participants_)
            co_await ctx.store(wakeFlag(partner), my_sense);
    }
}

// -------------------------------------------------------------- MemReducer

MemReducer::MemReducer(core::Machine &m) : addr_(allocLine(m)) {}

coro::Task<void>
MemReducer::add(core::ThreadCtx &ctx, std::uint64_t delta)
{
    // Baseline reduction: CAS retry loop.
    for (;;) {
        const std::uint64_t cur = co_await ctx.load(addr_);
        const auto r = co_await ctx.cas(addr_, cur, cur + delta);
        if (r.success)
            co_return;
    }
}

coro::Task<std::uint64_t>
MemReducer::read(core::ThreadCtx &ctx)
{
    co_return co_await ctx.load(addr_);
}

// ------------------------------------------------------------ MemOrBarrier

MemOrBarrier::MemOrBarrier(core::Machine &m) : flagAddr_(allocLine(m)) {}

coro::Task<void>
MemOrBarrier::trigger(core::ThreadCtx &ctx)
{
    co_await ctx.store(flagAddr_, sense_);
}

coro::Task<bool>
MemOrBarrier::poll(core::ThreadCtx &ctx)
{
    co_return co_await ctx.load(flagAddr_) == sense_;
}

coro::Task<void>
MemOrBarrier::await(core::ThreadCtx &ctx)
{
    const std::uint64_t want = sense_;
    co_await ctx.spinUntil(flagAddr_, want);
}

void
MemOrBarrier::reset()
{
    sense_ = sense_ ? 0 : 1;
}

} // namespace wisync::sync
