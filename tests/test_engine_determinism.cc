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
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

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

/**
 * Drives one engine through the scripted workload. Every callback logs
 * (event id, cycle) and may schedule children; because both engines see
 * identical ids and rng streams *as long as execution order matches*,
 * any ordering divergence snowballs into a trace mismatch.
 */
template <typename Eng>
struct Driver
{
    Eng eng;
    std::mt19937 rng;
    std::vector<std::pair<int, Cycle>> trace;
    int nextId = 0;
    int budget; // bounds total event count

    explicit Driver(std::uint32_t seed, int budget_)
        : rng(seed), budget(budget_)
    {}

    void
    spawn(Cycle delta)
    {
        const int id = nextId++;
        --budget;
        eng.scheduleIn(delta, [this, id] { fire(id); });
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
            eng.schedule(when, [this, id, stop = i == stopAt] {
                fire(id);
                if (stop)
                    eng.stop();
            });
        }
    }

    /** Run to drain, logging where a stop() left the queue. */
    void
    runLogged()
    {
        while (!eng.run())
            trace.emplace_back(-1, eng.pendingEvents());
    }

    void
    fire(int id)
    {
        trace.emplace_back(id, eng.now());
        const unsigned children = rng() % 3;
        for (unsigned c = 0; c < children && budget > 0; ++c)
            spawn(pickDelta(rng));
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

    EXPECT_EQ(d.eng.pendingEvents(), 0u);
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
