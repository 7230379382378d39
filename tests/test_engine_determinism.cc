/**
 * @file
 * Cross-scheduler equivalence: replays randomized event scripts against
 * a reference (when, seq) binary-heap scheduler and requires the
 * production engine (ready ring, sliding level-0 window, far heap) to
 * produce a bit-identical execution trace — same event order, same
 * cycles, same final time.
 *
 * The script generator is deliberately adversarial about tier
 * boundaries: zero delays, short delays that cross an aligned
 * 256-cycle block, the level-0 window edge (deltas around 256), far
 * deltas from a few thousand cycles to past 2^24, nested scheduling
 * from inside callbacks, run(limit) parking between segments (which
 * wraps the level-0 window), same-cycle bursts spanning several
 * level-0 segments, stopped mid-bucket and resumed, and a bucket whose
 * far-heap arrivals land behind later level-0 insertions.
 *
 * Every event is one of the engine's slot shapes, picked from its id: a
 * 16-byte lambda, an 8-byte functor, a (fn, ctx) waiter whose context
 * outlives the event, or a coroutine resumed by resumeHandle.
 * Seqs reserved up front are filed later, by scheduleReserved, both at
 * later cycles (level 0 and the far heap, out of seq order) and into
 * the cycle being drained (a same-cycle splice).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "coro/primitives.hh"
#include "sim/engine.hh"

namespace {

using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::sim::kCycleMax;

/**
 * Reference scheduler: the textbook single min-heap ordered by
 * (cycle, insertion seq), with run(limit)/park semantics matching the
 * Engine contract. Deliberately simple enough to be obviously correct.
 */
class RefEngine
{
  public:
    Cycle now() const { return now_; }

    void
    schedule(Cycle when, std::function<void()> fn)
    {
        heap_.push_back(Ev{when, nextSeq_++, std::move(fn)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    void scheduleIn(Cycle delta, std::function<void()> fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    std::uint64_t reserveSeq() { return nextSeq_++; }

    void
    scheduleReserved(Cycle when, std::uint64_t seq, std::function<void()> fn)
    {
        heap_.push_back(Ev{when, seq, std::move(fn)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    void stop() { stopped_ = true; }

    bool
    run(Cycle limit = kCycleMax)
    {
        stopped_ = false;
        while (!heap_.empty()) {
            if (heap_.front().when > limit) {
                if (limit > now_)
                    now_ = limit;
                return false;
            }
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            Ev ev = std::move(heap_.back());
            heap_.pop_back();
            now_ = ev.when;
            ev.fn();
            if (stopped_)
                return heap_.empty();
        }
        return true;
    }

    std::size_t pendingEvents() const { return heap_.size(); }

  private:
    struct Ev
    {
        Cycle when;
        std::uint64_t seq;
        std::function<void()> fn;
    };

    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::vector<Ev> heap_;
    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
    bool stopped_ = false;
};

/** Delta distribution straddling every tier boundary. */
Cycle
pickDelta(std::mt19937 &rng)
{
    switch (rng() % 12) {
      case 0:
        return 0;
      case 1:
      case 2:
        return rng() % 4;
      case 3:
      case 4:
        return rng() % 256; // level 0
      case 5:
        return 250 + rng() % 12; // level-0 window edge
      case 6:
        return rng() % 65536; // mostly far heap
      case 7:
        return 65530 + rng() % 12; // far heap, around 2^16
      case 8:
        return rng() % (Cycle{1} << 20); // far heap
      case 9:
        return (Cycle{1} << 24) - 6 + rng() % 12; // far heap, around 2^24
      case 10:
        return (Cycle{1} << 24) + rng() % 1000; // far heap, past 2^24
      default:
        return rng() % 2048;
    }
}

/** Coroutine that runs to completion on its own (no owner). */
struct Detached
{
    struct promise_type
    {
        Detached get_return_object() const { return {}; }
        std::suspend_never initial_suspend() const noexcept { return {}; }
        std::suspend_never final_suspend() const noexcept { return {}; }
        void return_void() const {}
        [[noreturn]] void unhandled_exception() const { std::terminate(); }
    };
};

/** Resume the awaiting coroutine @p delta cycles later: the engine's
 *  resumeHandle, or a plain callback on the reference scheduler. */
template <typename Eng>
struct ResumeIn
{
    Eng &eng;
    Cycle delta;
    bool await_ready() const noexcept { return false; }
    void
    await_suspend(std::coroutine_handle<> h)
    {
        if constexpr (std::is_same_v<Eng, Engine>)
            eng.resumeHandle(delta, h);
        else
            eng.scheduleIn(delta, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
};

/**
 * Drives one engine through the scripted workload. Every callback logs
 * (event id, cycle) and may schedule children; because both engines see
 * identical ids and rng streams *as long as execution order matches*,
 * any ordering divergence snowballs into a trace mismatch.
 */
template <typename Eng>
struct Driver
{
    /** A seq claimed by reserveSeq(), waiting to be filed. */
    struct Reservation
    {
        std::uint64_t seq;
        Cycle when;
        int id;
    };

    Eng eng;
    std::mt19937 rng;
    std::vector<std::pair<int, Cycle>> trace;
    std::deque<Reservation> reservations;
    Reservation splice{}; // see splicedBurst()
    int reservationsFiled = 0; // at a later cycle
    int splicesFiled = 0;      // into the cycle being drained
    int nextId = 0;
    int budget; // bounds total event count

    explicit Driver(std::uint32_t seed, int budget_)
        : rng(seed), budget(budget_)
    {}

    /** What an event does after fire(). */
    enum class Then : std::uint8_t
    {
        Nothing,
        Stop,   ///< stop the engine
        Splice, ///< file the spliced burst's reserved seq
    };

    /** An event's id and follow-up, kept for the events that carry
     *  only a pointer to it (deque: addresses stay put). */
    struct Record
    {
        Driver *d;
        int id;
        Then then;

        void operator()() const { d->fire(id, then); }
    };
    std::deque<Record> records;

    /** An 8-byte functor over a Record. */
    struct FireRecord
    {
        const Record *r;
        void operator()() const { (*r)(); }
    };

    /**
     * Hand @p schedule the callable for event @p id, of the slot shape
     * the id picks: a 16-byte lambda, an 8-byte functor, or a (fn, ctx)
     * waiter, the last two over a Record.
     */
    template <typename Schedule>
    void
    file(int id, Schedule &&schedule, Then then = Then::Nothing)
    {
        switch (id % 3) {
          case 0:
            static_assert(sizeof(Driver *) + sizeof(int) + sizeof(Then) <=
                          Engine::kInlinePayload);
            schedule([this, id, then] { fire(id, then); });
            break;
          case 1:
            static_assert(sizeof(FireRecord) == 8);
            records.push_back(Record{this, id, then});
            schedule(FireRecord{&records.back()});
            break;
          default:
            records.push_back(Record{this, id, then});
            schedule(wisync::coro::detail::Waiter{
                &records.back(),
                [](void *r) { (*static_cast<const Record *>(r))(); }});
            break;
        }
    }

    static Detached
    resumeAfter(Driver *d, Cycle delta, int id)
    {
        co_await ResumeIn<Eng>{d->eng, delta};
        d->fire(id);
    }

    void
    spawn(Cycle delta)
    {
        const int id = nextId++;
        --budget;
        if (id % 4 == 3)
            resumeAfter(this, delta, id);
        else
            file(id, [&](auto &&fn) {
                eng.scheduleIn(delta, std::forward<decltype(fn)>(fn));
            });
    }

    /**
     * @p count events at absolute cycle @p when, the @p stopAt-th of
     * which stops the engine. Outside the event budget: the burst's
     * size is the point.
     */
    void
    burst(Cycle when, int count, int stopAt)
    {
        for (int i = 0; i < count; ++i) {
            const int id = nextId++;
            file(id,
                 [&](auto &&fn) {
                     eng.schedule(when, std::forward<decltype(fn)>(fn));
                 },
                 i == stopAt ? Then::Stop : Then::Nothing);
        }
    }

    /**
     * @p count events at @p when with a seq reserved after the first
     * half; the @p splicer-th event (in the first half) files it at
     * the same cycle, into the undrained rest of the bucket.
     */
    void
    splicedBurst(Cycle when, int count, int splicer)
    {
        for (int i = 0; i < count; ++i) {
            if (i == count / 2)
                splice = Reservation{eng.reserveSeq(), when, nextId++};
            const int id = nextId++;
            file(id,
                 [&](auto &&fn) {
                     eng.schedule(when, std::forward<decltype(fn)>(fn));
                 },
                 i == splicer ? Then::Splice : Then::Nothing);
        }
    }

    /** File @p r under its reserved seq. */
    void
    fileReservation(const Reservation &r)
    {
        (r.when == eng.now() ? splicesFiled : reservationsFiled) += 1;
        file(r.id, [&](auto &&fn) {
            eng.scheduleReserved(r.when, r.seq,
                                 std::forward<decltype(fn)>(fn));
        });
    }

    /** Run to drain, logging where a stop() left the queue. */
    void
    runLogged()
    {
        while (!eng.run())
            trace.emplace_back(-1, eng.pendingEvents());
    }

    void
    fire(int id, Then then = Then::Nothing)
    {
        trace.emplace_back(id, eng.now());
        const unsigned children = rng() % 3;
        for (unsigned c = 0; c < children && budget > 0; ++c)
            spawn(pickDelta(rng));
        // Every fifth event claims a seq for a later cycle (level 0 or
        // the far heap); every fifth, offset by two, files the oldest
        // claim whose cycle is still ahead. Claims that fall behind are
        // never filed, which is legal too.
        if (id % 5 == 0 && budget > 0) {
            --budget;
            const Cycle delta = 1 + pickDelta(rng);
            reservations.push_back(
                Reservation{eng.reserveSeq(), eng.now() + delta, nextId++});
        }
        if (id % 5 == 2) {
            while (!reservations.empty() &&
                   reservations.front().when <= eng.now())
                reservations.pop_front();
            if (!reservations.empty()) {
                fileReservation(reservations.front());
                reservations.pop_front();
            }
        }
        if (then == Then::Stop)
            eng.stop();
        else if (then == Then::Splice)
            fileReservation(splice);
    }
};

template <typename Eng>
std::pair<std::vector<std::pair<int, Cycle>>, Cycle>
replay(std::uint32_t seed)
{
    Driver<Eng> d(seed, 600);
    std::mt19937 outer(seed ^ 0x9e3779b9u);

    // Phase 1: a batch of roots, drained completely.
    for (int i = 0; i < 40; ++i)
        d.spawn(pickDelta(outer));
    d.eng.run();

    // Phase 2: interleave run(limit) segments with outside insertions,
    // exercising parking inside blocks and across window boundaries.
    Cycle limit = d.eng.now();
    for (int seg = 0; seg < 25; ++seg) {
        for (int i = 0; i < 4; ++i)
            d.spawn(pickDelta(outer));
        limit += outer() % 70'000;
        d.eng.run(limit);
    }
    d.eng.run();

    // Phase 3: one cycle holding more than three level-0 segments'
    // worth of events, all filed in order, stopped mid-bucket.
    d.burst(d.eng.now() + 1 + outer() % 300, 130, 70);
    d.runLogged();

    // Phase 4: the same, but half the burst is filed in the far heap
    // and half (later, after parking inside the target's level-0
    // window) at level 0, so the far events join the bucket behind
    // later seqs and staging must sort it.
    const Cycle target =
        d.eng.now() + Engine::kCalendarHorizon + 40 + outer() % 200;
    d.burst(target, 65, -1);
    d.eng.run(target - 20);
    d.burst(target, 65, 90 - 65);
    d.runLogged();

    // Phase 5: same-cycle splices. Each burst spans several level-0
    // segments (the last one far-filed, so it is staged via a sort),
    // and an event of its first half files the seq reserved in its
    // middle into the bucket being drained.
    for (const int splicer : {0, 17, 33}) {
        const Cycle far = splicer == 33 ? Engine::kCalendarHorizon : 0;
        d.splicedBurst(d.eng.now() + 1 + far + outer() % 200, 80, splicer);
        d.runLogged();
    }

    EXPECT_EQ(d.eng.pendingEvents(), 0u);
    EXPECT_GT(d.reservationsFiled, 0);
    EXPECT_EQ(d.splicesFiled, 3);
    return {std::move(d.trace), d.eng.now()};
}

class EngineDeterminism : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(EngineDeterminism, MatchesReferenceHeapScheduler)
{
    const auto [refTrace, refNow] = replay<RefEngine>(GetParam());
    const auto [trace, now] = replay<Engine>(GetParam());
    ASSERT_EQ(trace.size(), refTrace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(trace[i].first, refTrace[i].first)
            << "event order diverged at position " << i << " (cycle "
            << trace[i].second << " vs " << refTrace[i].second << ")";
        ASSERT_EQ(trace[i].second, refTrace[i].second)
            << "cycle diverged for event " << trace[i].first;
    }
    EXPECT_EQ(now, refNow);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDeterminism,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           0xdeadbeefu));

} // namespace
