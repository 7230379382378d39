/**
 * @file
 * Synchronization on the Broadcast Memory (paper §4.3, Fig. 4).
 *
 * BmLock          — test&set on a BM word with AFB retry (§4.3.1)
 * BmBarrier       — sense-reversing barrier with fetch&inc on the BM:
 *                   the Data-channel barrier used by WiSyncNoT
 *                   (§4.3.2); Count and Release pack into one entry's
 *                   two halves conceptually — modelled as two words.
 * ToneBarrier     — the hardware Tone-channel barrier (§4.3.3)
 * MultiChipBarrier— hierarchical barrier for multi-chip machines:
 *                   per-chip local phase on chip-local words (tone
 *                   barrier where available), chip representatives
 *                   synchronize on global words over the bridge
 * BmOrBarrierImpl — eureka on a BM word (§4.3.2)
 * BmReducer       — fetch&add reduction (§4.3.5)
 * ProducerConsumer— full/empty flag protocol (§4.3.4)
 * Multicaster     — single producer, N consumers with a count +
 *                   toggling flag (Fig. 4(d))
 */

#ifndef WISYNC_SYNC_WISYNC_SYNC_HH
#define WISYNC_SYNC_WISYNC_SYNC_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sync/primitives.hh"

namespace wisync::sync {

/** Allocate + PID-tag BM words at program setup (zero simulated cost;
 *  the runtime allocation broadcast is exercised in tests). */
sim::BmAddr setupBmWords(core::Machine &m, std::uint32_t words,
                         sim::Pid pid);

/** Spin lock on a BM word (test&set with AFB retry). */
class BmLock : public Lock
{
  public:
    BmLock(core::Machine &m, sim::Pid pid);

    coro::Task<void> acquire(core::ThreadCtx &ctx) override;
    coro::Task<void> release(core::ThreadCtx &ctx) override;

  private:
    sim::BmAddr addr_;
};

/** Sense-reversing fetch&inc barrier on the BM (Data channel only). */
class BmBarrier : public Barrier
{
  public:
    BmBarrier(core::Machine &m, sim::Pid pid, std::uint32_t participants);

    coro::Task<void> wait(core::ThreadCtx &ctx) override;

  private:
    std::uint32_t participants_;
    sim::BmAddr countAddr_;
    sim::BmAddr releaseAddr_;
    Senses senses_;
};

/**
 * Hardware tone barrier (Fig. 4(c)).
 *
 * Construction registers the barrier in AllocB with the Armed bits of
 * the participating nodes; construction fails (throws) if AllocB
 * overflows — callers should use makeBarrier() in the factory, which
 * falls back to a BmBarrier, as §4.4 prescribes.
 */
class ToneBarrier : public Barrier
{
  public:
    ToneBarrier(core::Machine &m, sim::Pid pid,
                const std::vector<sim::NodeId> &participants);
    ~ToneBarrier() override;

    coro::Task<void> wait(core::ThreadCtx &ctx) override;

    sim::BmAddr address() const { return addr_; }

  private:
    core::Machine &machine_;
    sim::BmAddr addr_;
    Senses senses_;
};

/**
 * Hierarchical barrier for machines with several chips.
 *
 * Each chip runs a local phase entirely on chip-local BM words (a
 * hardware tone barrier when the Tone channel has a free AllocB slot,
 * a fetch&inc counter otherwise), so per-chip traffic never crosses
 * the bridge. One representative per chip then runs a global
 * sense-reversing phase on bridged global words, and finally toggles
 * its chip's local release word. Threads must stay on their
 * construction-time nodes (no migration), like tone barriers.
 */
class MultiChipBarrier : public Barrier
{
  public:
    MultiChipBarrier(core::Machine &m, sim::Pid pid,
                     const std::vector<sim::NodeId> &participants);
    ~MultiChipBarrier() override;

    coro::Task<void> wait(core::ThreadCtx &ctx) override;

  private:
    /** One involved chip's local-phase state. */
    struct ChipGroup
    {
        std::uint32_t chip = 0;
        std::uint32_t participants = 0;
        /** Fixed representative (first participant node on the chip);
         *  meaningful on the tone path, where there is no "last
         *  arriver" — the release frees everyone at once. */
        sim::NodeId repNode = 0;
        bool tone = false;
        /** Tone-barrier word (tone path) or arrival counter. */
        sim::BmAddr arriveAddr = 0;
        sim::BmAddr releaseAddr = 0;
    };

    core::Machine &machine_;
    std::vector<ChipGroup> groups_;
    std::vector<std::uint32_t> groupOfChip_; // chip -> groups_ index
    sim::BmAddr gcountAddr_;
    sim::BmAddr greleaseAddr_;
    Senses senses_;
};

/** Eureka on a BM word (§4.3.2), sense-reversing for reuse. */
class BmOrBarrierImpl : public OrBarrier
{
  public:
    BmOrBarrierImpl(core::Machine &m, sim::Pid pid);

    coro::Task<void> trigger(core::ThreadCtx &ctx) override;
    coro::Task<bool> poll(core::ThreadCtx &ctx) override;
    coro::Task<void> await(core::ThreadCtx &ctx) override;
    void reset() override;

  private:
    sim::BmAddr addr_;
    std::uint64_t sense_ = 1;
};

/** fetch&add reduction cell on the BM. */
class BmReducer : public Reducer
{
  public:
    BmReducer(core::Machine &m, sim::Pid pid);

    coro::Task<void> add(core::ThreadCtx &ctx, std::uint64_t delta)
        override;
    coro::Task<std::uint64_t> read(core::ThreadCtx &ctx) override;

  private:
    sim::BmAddr addr_;
};

/**
 * Single-producer single-consumer channel over the BM (§4.3.4):
 * a 4-word data block moved with bulk transfers plus a full/empty
 * flag word.
 */
class ProducerConsumer
{
  public:
    ProducerConsumer(core::Machine &m, sim::Pid pid);

    /** Producer: publish 4 words, then block until consumed. */
    coro::Task<void> produce(core::ThreadCtx &ctx,
                             std::array<std::uint64_t, 4> values);

    /** Consumer: block until produced, consume, clear the flag. */
    coro::Task<std::array<std::uint64_t, 4>> consume(core::ThreadCtx &ctx);

  private:
    sim::BmAddr dataAddr_;
    sim::BmAddr flagAddr_;
};

/**
 * Single producer, N consumers (Fig. 4(d)): data word + count +
 * toggling flag implementing a sense-reversing hand-off.
 */
class Multicaster
{
  public:
    Multicaster(core::Machine &m, sim::Pid pid, std::uint32_t readers);

    /** Producer: publish @p value and wait until all readers got it. */
    coro::Task<void> publish(core::ThreadCtx &ctx, std::uint64_t value);

    /** Reader: wait for the next publication and return it. */
    coro::Task<std::uint64_t> receive(core::ThreadCtx &ctx);

  private:
    std::uint32_t readers_;
    sim::BmAddr dataAddr_;
    sim::BmAddr countAddr_;
    sim::BmAddr flagAddr_;
    std::uint64_t produceSense_ = 1;
    Senses readerSenses_;
};

} // namespace wisync::sync

#endif // WISYNC_SYNC_WISYNC_SYNC_HH
