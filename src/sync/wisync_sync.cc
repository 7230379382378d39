#include "sync/wisync_sync.hh"

#include <stdexcept>

#include "sim/logging.hh"

namespace wisync::sync {

sim::BmAddr
setupBmWords(core::Machine &m, std::uint32_t words, sim::Pid pid)
{
    WISYNC_ASSERT(m.bm() != nullptr, "BM variables need a WiSync config");
    sim::BmAddr addr = 0;
    if (!m.allocBm(words, addr))
        throw std::runtime_error("BM exhausted");
    for (std::uint32_t i = 0; i < words; ++i)
        m.bm()->storeArray().setTag(addr + i, pid);
    return addr;
}

// ----------------------------------------------------------------- BmLock

BmLock::BmLock(core::Machine &m, sim::Pid pid)
    : addr_(setupBmWords(m, 1, pid))
{}

coro::Task<void>
BmLock::acquire(core::ThreadCtx &ctx)
{
    for (;;) {
        // Test-and-test&set: watch the replica until the lock looks
        // free, then try to grab it (AFB retries inside).
        co_await ctx.bmSpinUntil(addr_, 0);
        // Awaited into a local, not in the if: GCC 12 can lay out the
        // frame of a co_await in a condition wrongly (it resumed at a
        // bad state here).
        const std::uint64_t was = co_await ctx.bmTestAndSet(addr_);
        if (was == 0)
            co_return;
    }
}

coro::Task<void>
BmLock::release(core::ThreadCtx &ctx)
{
    co_await ctx.bmStore(addr_, 0);
}

// -------------------------------------------------------------- BmBarrier

BmBarrier::BmBarrier(core::Machine &m, sim::Pid pid,
                     std::uint32_t participants)
    : participants_(participants), countAddr_(setupBmWords(m, 1, pid)),
      releaseAddr_(setupBmWords(m, 1, pid)), senses_(m)
{
    WISYNC_ASSERT(participants > 0, "empty barrier");
}

coro::Task<void>
BmBarrier::wait(core::ThreadCtx &ctx)
{
    const std::uint64_t sense = senses_.flip(ctx.tid());
    const std::uint64_t arrived =
        co_await ctx.bmFetchAdd(countAddr_, 1) + 1;
    if (arrived == participants_) {
        co_await ctx.bmStore(countAddr_, 0);
        co_await ctx.bmStore(releaseAddr_, sense);
    } else {
        co_await ctx.bmSpinUntil(releaseAddr_, sense);
    }
}

// ------------------------------------------------------------ ToneBarrier

ToneBarrier::ToneBarrier(core::Machine &m, sim::Pid pid,
                         const std::vector<sim::NodeId> &participants)
    : machine_(m), addr_(setupBmWords(m, 1, pid)), senses_(m)
{
    WISYNC_ASSERT(m.bm() != nullptr, "tone barrier needs WiSync");
    std::vector<bool> armed(m.config().numCores, false);
    for (const auto n : participants) {
        WISYNC_ASSERT(!armed[n],
                      "two threads of one tone barrier on the same core "
                      "are unsupported (§5.2)");
        armed[n] = true;
    }
    if (!m.bm()->allocToneBarrier(addr_, std::move(armed)))
        throw std::runtime_error("AllocB overflow (or no Tone channel)");
}

ToneBarrier::~ToneBarrier()
{
    machine_.bm()->deallocToneBarrier(addr_);
}

coro::Task<void>
ToneBarrier::wait(core::ThreadCtx &ctx)
{
    // Fig. 4(c): local_sense = !local_sense; tone_st; spin tone_ld.
    const std::uint64_t want = senses_.flip(ctx.tid());
    co_await ctx.toneStore(addr_);
    co_await ctx.bmSpinUntil(addr_, want);
}

// ------------------------------------------------------- MultiChipBarrier

MultiChipBarrier::MultiChipBarrier(core::Machine &m, sim::Pid pid,
                                   const std::vector<sim::NodeId>
                                       &participants)
    : machine_(m), gcountAddr_(setupBmWords(m, 1, pid)),
      greleaseAddr_(setupBmWords(m, 1, pid)), senses_(m)
{
    WISYNC_ASSERT(m.bm() != nullptr, "multi-chip barrier needs WiSync");
    const core::MachineConfig &cfg = m.config();
    groupOfChip_.assign(cfg.numChips, cfg.numChips);
    for (const sim::NodeId n : participants) {
        const std::uint32_t chip = cfg.chipOf(n);
        if (groupOfChip_[chip] == cfg.numChips) {
            groupOfChip_[chip] =
                static_cast<std::uint32_t>(groups_.size());
            ChipGroup g;
            g.chip = chip;
            g.repNode = n;
            groups_.push_back(g);
        }
        ++groups_[groupOfChip_[chip]].participants;
    }
    WISYNC_ASSERT(groups_.size() > 1,
                  "participants sit on one chip — use a plain barrier");
    for (ChipGroup &g : groups_) {
        // Local phase: a per-chip tone barrier where the hardware has
        // a slot, the counter protocol otherwise. Either way the words
        // are chip-local — the local phase never crosses the bridge.
        g.tone = false;
        if (cfg.hasTone()) {
            g.arriveAddr = setupBmWords(m, 1, pid);
            std::vector<bool> armed(cfg.numCores, false);
            for (const sim::NodeId n : participants)
                if (cfg.chipOf(n) == g.chip) {
                    WISYNC_ASSERT(!armed[n],
                                  "two threads of one tone barrier on "
                                  "the same core are unsupported (§5.2)");
                    armed[n] = true;
                }
            g.tone = m.bm()->allocToneBarrier(g.arriveAddr,
                                              std::move(armed));
        }
        if (!g.tone) {
            if (!cfg.hasTone())
                g.arriveAddr = setupBmWords(m, 1, pid);
            m.bm()->storeArray().setScope(g.arriveAddr,
                                          bm::BmScope::ChipLocal);
        }
        g.releaseAddr = setupBmWords(m, 1, pid);
        m.bm()->storeArray().setScope(g.releaseAddr,
                                      bm::BmScope::ChipLocal);
    }
}

MultiChipBarrier::~MultiChipBarrier()
{
    for (const ChipGroup &g : groups_)
        if (g.tone)
            machine_.bm()->deallocToneBarrier(g.arriveAddr);
}

coro::Task<void>
MultiChipBarrier::wait(core::ThreadCtx &ctx)
{
    const std::uint64_t want = senses_.flip(ctx.tid());
    const ChipGroup &g =
        groups_[groupOfChip_[machine_.config().chipOf(ctx.node())]];
    bool rep = false;
    if (g.tone) {
        // All local threads release together; the fixed representative
        // then carries the chip into the global phase.
        co_await ctx.toneStore(g.arriveAddr);
        co_await ctx.bmSpinUntil(g.arriveAddr, want);
        rep = ctx.node() == g.repNode;
    } else {
        // Counter protocol: the last local arriver is the rep.
        const std::uint64_t arrived =
            co_await ctx.bmFetchAdd(g.arriveAddr, 1) + 1;
        if (arrived == g.participants) {
            co_await ctx.bmStore(g.arriveAddr, 0);
            rep = true;
        }
    }
    if (rep) {
        // Global phase over the bridge: one sense-reversing round among
        // the chip representatives. fetch&add on a bridged word retries
        // through stale-replica AFB aborts until the chip is current.
        const std::uint64_t garrived =
            co_await ctx.bmFetchAdd(gcountAddr_, 1) + 1;
        if (garrived == groups_.size()) {
            co_await ctx.bmStore(gcountAddr_, 0);
            co_await ctx.bmStore(greleaseAddr_, want);
        } else {
            co_await ctx.bmSpinUntil(greleaseAddr_, want);
        }
        co_await ctx.bmStore(g.releaseAddr, want);
    } else {
        co_await ctx.bmSpinUntil(g.releaseAddr, want);
    }
}

// -------------------------------------------------------- BmOrBarrierImpl

BmOrBarrierImpl::BmOrBarrierImpl(core::Machine &m, sim::Pid pid)
    : addr_(setupBmWords(m, 1, pid))
{}

coro::Task<void>
BmOrBarrierImpl::trigger(core::ThreadCtx &ctx)
{
    co_await ctx.bmStore(addr_, sense_);
}

coro::Task<bool>
BmOrBarrierImpl::poll(core::ThreadCtx &ctx)
{
    co_return co_await ctx.bmLoad(addr_) == sense_;
}

coro::Task<void>
BmOrBarrierImpl::await(core::ThreadCtx &ctx)
{
    const std::uint64_t want = sense_;
    co_await ctx.bmSpinUntil(addr_, want);
}

void
BmOrBarrierImpl::reset()
{
    sense_ = sense_ ? 0 : 1;
}

// -------------------------------------------------------------- BmReducer

BmReducer::BmReducer(core::Machine &m, sim::Pid pid)
    : addr_(setupBmWords(m, 1, pid))
{}

coro::Task<void>
BmReducer::add(core::ThreadCtx &ctx, std::uint64_t delta)
{
    co_await ctx.bmFetchAdd(addr_, delta);
}

coro::Task<std::uint64_t>
BmReducer::read(core::ThreadCtx &ctx)
{
    co_return co_await ctx.bmLoad(addr_);
}

// ------------------------------------------------------- ProducerConsumer

ProducerConsumer::ProducerConsumer(core::Machine &m, sim::Pid pid)
    : dataAddr_(setupBmWords(m, 4, pid)), flagAddr_(setupBmWords(m, 1, pid))
{}

coro::Task<void>
ProducerConsumer::produce(core::ThreadCtx &ctx,
                          std::array<std::uint64_t, 4> values)
{
    // Wait until the previous datum was consumed (flag clear).
    co_await ctx.bmSpinUntil(flagAddr_, 0);
    co_await ctx.bmBulkStore(dataAddr_, values);
    co_await ctx.bmStore(flagAddr_, 1);
}

coro::Task<std::array<std::uint64_t, 4>>
ProducerConsumer::consume(core::ThreadCtx &ctx)
{
    co_await ctx.bmSpinUntil(flagAddr_, 1);
    const auto data = co_await ctx.bmBulkLoad(dataAddr_);
    co_await ctx.bmStore(flagAddr_, 0);
    co_return data;
}

// ------------------------------------------------------------ Multicaster

Multicaster::Multicaster(core::Machine &m, sim::Pid pid,
                         std::uint32_t readers)
    : readers_(readers), dataAddr_(setupBmWords(m, 1, pid)),
      countAddr_(setupBmWords(m, 1, pid)), flagAddr_(setupBmWords(m, 1, pid)),
      readerSenses_(m)
{
    WISYNC_ASSERT(readers > 0, "multicast needs readers");
}

coro::Task<void>
Multicaster::publish(core::ThreadCtx &ctx, std::uint64_t value)
{
    // Fig. 4(d): write data, count = N, toggle flag, spin count == 0.
    co_await ctx.bmStore(dataAddr_, value);
    co_await ctx.bmStore(countAddr_, readers_);
    co_await ctx.bmStore(flagAddr_, produceSense_);
    produceSense_ = produceSense_ ? 0 : 1;
    co_await ctx.bmSpinUntil(countAddr_, 0);
}

coro::Task<std::uint64_t>
Multicaster::receive(core::ThreadCtx &ctx)
{
    // The first flip yields 1, matching the producer's first toggle.
    const std::uint64_t want = readerSenses_.flip(ctx.tid());
    co_await ctx.bmSpinUntil(flagAddr_, want);
    const std::uint64_t data = co_await ctx.bmLoad(dataAddr_);
    // fetch&add(count, -1).
    co_await ctx.bmFetchAdd(countAddr_,
                            static_cast<std::uint64_t>(-1));
    co_return data;
}

} // namespace wisync::sync
