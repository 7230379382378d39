/**
 * @file
 * Conventional synchronization on the cache hierarchy (Table 2).
 *
 * Baseline:  test-and-test-and-set lock built on CAS; centralized
 *            sense-reversing barrier whose counter is incremented
 *            with a CAS retry loop (the Baseline core has no other
 *            atomic).
 * Baseline+: MCS queue locks and tournament barriers
 *            (Mellor-Crummey & Scott [31]).
 *
 * All shared variables are placed on distinct cache lines.
 */

#ifndef WISYNC_SYNC_BASELINE_SYNC_HH
#define WISYNC_SYNC_BASELINE_SYNC_HH

#include <cstdint>

#include "sync/primitives.hh"

namespace wisync::sync {

/** TTAS spin lock over coherent memory (Baseline). */
class TasLock : public Lock
{
  public:
    explicit TasLock(core::Machine &m);

    coro::Task<void> acquire(core::ThreadCtx &ctx) override;
    coro::Task<void> release(core::ThreadCtx &ctx) override;

  private:
    sim::Addr lockAddr_;
};

/**
 * Centralized sense-reversing barrier (Baseline).
 *
 * The arrival counter is bumped with a CAS loop; the last arrival
 * resets the counter and toggles the release flag that everyone else
 * spins on — the textbook algorithm [16].
 */
class CentralBarrier : public Barrier
{
  public:
    CentralBarrier(core::Machine &m, std::uint32_t participants);

    coro::Task<void> wait(core::ThreadCtx &ctx) override;

  private:
    std::uint32_t participants_;
    sim::Addr countAddr_;
    sim::Addr releaseAddr_;
    Senses senses_;
};

/** MCS queue lock (Baseline+) [31]. */
class McsLock : public Lock
{
  public:
    explicit McsLock(core::Machine &m);

    coro::Task<void> acquire(core::ThreadCtx &ctx) override;
    coro::Task<void> release(core::ThreadCtx &ctx) override;

  private:
    struct QNode
    {
        sim::Addr nextAddr = 0;   // 0 = none, else holder's qnode base
        sim::Addr lockedAddr = 0; // spin word
        sim::Addr base = 0;       // identity stored in the tail; 0 = none
    };
    /** The thread's qnode, allocated on its first use. Callers keep a
     *  copy across awaits: a higher thread id may grow the table. */
    QNode nodeFor(core::ThreadCtx &ctx);

    core::Machine &machine_;
    sim::Addr tailAddr_;
    PerThread<QNode> qnodes_;
};

/**
 * Tournament barrier (Baseline+) [31].
 *
 * log2(N) arrival rounds of statically-paired flags, then a wakeup
 * tree: the champion wakes the losers it beat, each of whom wakes the
 * losers *it* beat. Every spin is on the spinner's own cache line.
 */
class TournamentBarrier : public Barrier
{
  public:
    TournamentBarrier(core::Machine &m, std::uint32_t participants);

    coro::Task<void> wait(core::ThreadCtx &ctx) override;

  private:
    sim::Addr arriveFlag(std::uint32_t slot, std::uint32_t round) const;
    sim::Addr wakeFlag(std::uint32_t slot) const;

    std::uint32_t participants_;
    std::uint32_t rounds_;
    sim::Addr arriveBase_;
    sim::Addr wakeBase_;
    Senses senses_;
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
    /** Dense slot index per thread (assigned on first wait). */
    PerThread<std::uint32_t> slots_;
    std::uint32_t nextSlot_ = 0;
};

/** CAS-loop reduction cell over coherent memory. */
class MemReducer : public Reducer
{
  public:
    explicit MemReducer(core::Machine &m);

    coro::Task<void> add(core::ThreadCtx &ctx, std::uint64_t delta)
        override;
    coro::Task<std::uint64_t> read(core::ThreadCtx &ctx) override;

  private:
    sim::Addr addr_;
};

/** Sense-reversing OR-barrier over coherent memory. */
class MemOrBarrier : public OrBarrier
{
  public:
    explicit MemOrBarrier(core::Machine &m);

    coro::Task<void> trigger(core::ThreadCtx &ctx) override;
    coro::Task<bool> poll(core::ThreadCtx &ctx) override;
    coro::Task<void> await(core::ThreadCtx &ctx) override;
    void reset() override;

  private:
    sim::Addr flagAddr_;
    std::uint64_t sense_ = 1;
};

} // namespace wisync::sync

#endif // WISYNC_SYNC_BASELINE_SYNC_HH
