/**
 * @file
 * Frame ownership of the BM instruction path.
 *
 * A BM load and a compute are plain delays and own no coroutine frame;
 * the MAC hooks that grant at once never touch the frame pool; an
 * uncontended BM store or RMW owns exactly one frame (its own) under
 * every MAC and allocates nothing on a warm machine. A Machine::reset
 * taken while a send waits frees every frame and leaves no stale
 * attempt or waiter behind, whichever wait the send was in: the order
 * lock, the token queue, the fuzzy grant queue, the channel, a BRS
 * backoff or an ack timeout.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bm/bm_system.hh"
#include "core/machine.hh"
#include "coro/frame_pool.hh"
#include "coro/primitives.hh"
#include "sim/engine.hh"
#include "sim/heap_counter.hh"
#include "sim/rng.hh"
#include "wireless/data_channel.hh"
#include "wireless/mac/mac_protocol.hh"

namespace {

using wisync::bm::BmConfig;
using wisync::bm::BmSystem;
using wisync::bm::RmwOp;
using wisync::coro::delay;
using wisync::coro::spawnNow;
using wisync::coro::Task;
using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::core::ThreadCtx;
using wisync::sim::BmAddr;
using wisync::sim::Cycle;
using wisync::sim::Engine;
using wisync::sim::NodeId;
using wisync::sim::Rng;
using wisync::wireless::DataChannel;
using wisync::wireless::MacKind;
using wisync::wireless::MacWaiter;
using wisync::wireless::WirelessConfig;

constexpr MacKind kAllMacs[] = {MacKind::Brs, MacKind::Token,
                                MacKind::FuzzyToken, MacKind::Adaptive};

std::uint64_t
framesMade()
{
    const auto &st = wisync::coro::framePool().stats();
    return st.pooledAllocs + st.fallbackAllocs;
}

/** Frames and heap allocations made since construction. */
struct Meter
{
    std::uint64_t frames0 = framesMade();
    std::uint64_t heap0 = wisync::sim::heapAllocs();

    std::uint64_t frames() const { return framesMade() - frames0; }
    std::uint64_t heap() const { return wisync::sim::heapAllocs() - heap0; }
};

void
neverResumed(MacWaiter &)
{
    ADD_FAILURE() << "an immediate grant must not park the send";
}

TEST(BmFrames, LoadAndComputeMakeNoFrame)
{
    Machine m(MachineConfig::make(ConfigKind::WiSync, 16));
    m.bm()->storeArray().setTag(4, 1);
    std::uint64_t frames[3] = {9, 9, 9};
    Cycle took[3] = {};
    std::uint64_t value = 1;
    std::uint64_t bulk_first = 1;
    m.spawnThread(3, [&](ThreadCtx &ctx) -> Task<void> {
        Cycle t0 = ctx.machine().engine().now();
        Meter meter;
        value = co_await ctx.bmLoad(4);
        frames[0] = meter.frames();
        took[0] = ctx.machine().engine().now() - t0;

        t0 = ctx.machine().engine().now();
        meter = Meter{};
        co_await ctx.compute(10); // 2-issue: 5 cycles
        frames[1] = meter.frames();
        took[1] = ctx.machine().engine().now() - t0;

        for (BmAddr a = 4; a < 8; ++a)
            ctx.machine().bm()->storeArray().setTag(a, 1);
        t0 = ctx.machine().engine().now();
        meter = Meter{};
        bulk_first = (co_await ctx.bmBulkLoad(4))[0];
        frames[2] = meter.frames();
        took[2] = ctx.machine().engine().now() - t0;
    });
    ASSERT_TRUE(m.run());
    EXPECT_EQ(value, 0u);
    EXPECT_EQ(bulk_first, 0u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(frames[i], 0u) << "step " << i;
    EXPECT_EQ(took[0], BmConfig{}.bmRtCycles);
    EXPECT_EQ(took[1], 5u);
    EXPECT_EQ(took[2], BmConfig{}.bmRtCycles);
    EXPECT_EQ(m.bm()->stats().loads.value(), 2u);
}

/** The grants and collisions that need no wait, called on each
 *  protocol directly: no frame, no allocation, no event. */
TEST(BmFrames, ImmediateMacStepsMakeNoFrameAndNoEvent)
{
    for (const MacKind kind : kAllMacs) {
        SCOPED_TRACE(wisync::wireless::toString(kind));
        WirelessConfig cfg;
        cfg.macKind = kind;
        cfg.maxBackoffExp = 0; // an empty BRS window
        Engine eng;
        DataChannel channel(eng, cfg);
        auto protocol =
            wisync::wireless::makeMacProtocol(cfg, eng, channel, 8);
        MacWaiter w;
        w.resume = &neverResumed;
        Rng rng(7);
        const Meter meter;
        // Random access (BRS, Adaptive's BRS mode, the fuzzy CSMA
        // leg) or the token parked at node 0.
        EXPECT_TRUE(protocol->acquire(0, w));
        // Token yields at once; BRS draws from an empty window. The
        // fuzzy token always queues a collider.
        if (kind != MacKind::FuzzyToken)
            EXPECT_TRUE(protocol->onCollision(0, rng, w));
        else
            protocol->release(0, true);
        EXPECT_EQ(meter.frames(), 0u);
        EXPECT_EQ(meter.heap(), 0u);
        EXPECT_EQ(eng.pendingEvents(), 0u);
        EXPECT_EQ(protocol->stats().acquires.value(), 1u);
    }
}

/** A BRS collision whose backoff draw is zero goes on at once. */
TEST(BmFrames, ZeroBrsDrawGoesOnAtOnce)
{
    WirelessConfig cfg;
    Engine eng;
    DataChannel channel(eng, cfg);
    auto protocol = wisync::wireless::makeMacProtocol(cfg, eng, channel, 8);
    // The first collision opens the window [0, 1]: find a stream whose
    // first draw is 0.
    std::uint64_t seed = 1;
    for (;; ++seed) {
        Rng probe(seed);
        if (probe.below(2) == 0)
            break;
    }
    Rng rng(seed);
    MacWaiter w;
    w.resume = &neverResumed;
    const Meter meter;
    EXPECT_TRUE(protocol->onCollision(2, rng, w));
    EXPECT_EQ(meter.frames(), 0u);
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_EQ(protocol->stats().backoffEvents.value(), 1u);
    EXPECT_EQ(protocol->stats().backoffCycles.value(), 0u);
}

/** Under every MAC, an uncontended store or RMW on a warm system owns
 *  one frame (its own) and allocates nothing. */
TEST(BmFrames, UncontendedStoreAndRmwMakeOneFrameAndNoAllocation)
{
    for (const MacKind kind : kAllMacs) {
        SCOPED_TRACE(wisync::wireless::toString(kind));
        WirelessConfig wcfg;
        wcfg.macKind = kind;
        Engine engine;
        BmSystem bm(engine, 16, BmConfig{}, wcfg, Rng(99));
        bm.storeArray().setTag(0, 1);
        std::uint64_t store_frames = 9, store_heap = 9;
        std::uint64_t rmw_frames = 9, rmw_heap = 9;
        std::uint64_t old = 0;
        spawnNow(engine, [&]() -> Task<void> {
            // Warm-up: the first of each (node 3 fetches a parked
            // token over three ring hops under Token).
            co_await bm.store(3, 1, 0, 1);
            co_await bm.rmw(3, 1, 0, RmwOp::FetchAdd, 1);
            Meter meter;
            co_await bm.store(3, 1, 0, 10);
            store_frames = meter.frames();
            store_heap = meter.heap();
            meter = Meter{};
            old = (co_await bm.rmw(3, 1, 0, RmwOp::FetchAdd, 5)).oldValue;
            rmw_frames = meter.frames();
            rmw_heap = meter.heap();
        });
        ASSERT_TRUE(engine.run());
        EXPECT_EQ(store_frames, 1u);
        EXPECT_EQ(store_heap, 0u);
        EXPECT_EQ(rmw_frames, 1u);
        EXPECT_EQ(rmw_heap, 0u);
        EXPECT_EQ(old, 10u);
        EXPECT_EQ(bm.storeArray().read(7, 0), 15u);
    }
}

/** Under every MAC, the other controller broadcasts allocate nothing
 *  on a warm system: a bulk store, a tone announcement (with the
 *  release it leads to), and an allocEntries + deallocEntries pair. */
TEST(BmFrames, BulkToneAndTagBroadcastsMakeNoAllocation)
{
    constexpr BmAddr kBar = 8;
    for (const MacKind kind : kAllMacs) {
        SCOPED_TRACE(wisync::wireless::toString(kind));
        WirelessConfig wcfg;
        wcfg.macKind = kind;
        Engine engine;
        BmSystem bm(engine, 16, BmConfig{}, wcfg, Rng(99));
        for (BmAddr a = 0; a < 4; ++a)
            bm.storeArray().setTag(a, 1);
        bm.storeArray().setTag(kBar, 1);
        std::vector<bool> armed(16, false);
        armed[3] = true;
        ASSERT_TRUE(bm.allocToneBarrier(kBar, armed));
        std::uint64_t bulk_heap = 9, tone_heap = 9, tag_heap = 9;
        spawnNow(engine, [&]() -> Task<void> {
            // Round 0 warms up; round 1 is measured.
            for (std::uint64_t round = 0; round < 2; ++round) {
                Meter meter;
                co_await bm.bulkStore(3, 1, 0, {1, 2, 3, 4});
                bulk_heap = meter.heap();
                meter = Meter{};
                co_await bm.toneStore(3, 1, kBar);
                co_await bm.spinUntil(3, 1, kBar, 1 - round);
                tone_heap = meter.heap();
                meter = Meter{};
                co_await bm.allocEntries(3, 2, 10, 4);
                co_await bm.deallocEntries(3, 10, 4);
                tag_heap = meter.heap();
            }
        });
        ASSERT_TRUE(engine.run());
        EXPECT_EQ(bulk_heap, 0u);
        EXPECT_EQ(tone_heap, 0u);
        EXPECT_EQ(tag_heap, 0u);
        EXPECT_EQ(bm.storeArray().read(7, 2), 3u);
        EXPECT_EQ(bm.storeArray().read(7, kBar), 0u);
        EXPECT_EQ(bm.stats().toneAnnouncements.value(), 2u);
        EXPECT_EQ(bm.storeArray().tag(10), wisync::bm::kNoPid);
    }
}

// ---- A reset while a send waits ---------------------------------------

/** One wait state: the MAC, how to get a send into it, and the probe
 *  that shows it is there at the stop cycle. */
struct ParkCase
{
    std::string name;
    MacKind mac = MacKind::Brs;
    double lossPct = 0.0;
    /** Spawn the BM traffic on a fresh or reset machine. */
    std::function<void(Machine &)> spawn;
    Cycle stopAt = 0;
    std::function<bool(Machine &)> parked;
};

/** @p node stores @p value to word 0 after @p wait cycles. */
void
storeAt(Machine &m, NodeId node, Cycle wait, std::uint64_t value)
{
    spawnNow(
        m.engine(),
        [](Machine *mp, NodeId n, Cycle d, std::uint64_t v) -> Task<void> {
            co_await delay(mp->engine(), d);
            co_await mp->bm()->store(n, 1, 0, v);
        },
        &m, node, wait, value);
}

MachineConfig
configOf(const ParkCase &c)
{
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 16);
    cfg.wireless.macKind = c.mac;
    cfg.wireless.lossPct = c.lossPct;
    return cfg;
}

std::vector<ParkCase>
parkCases()
{
    auto tag = [](Machine &m) { m.bm()->storeArray().setTag(0, 1); };
    std::vector<ParkCase> cases;
    // Node 0's second store waits for its first to perform.
    cases.push_back({"OrderLock", MacKind::Brs, 0.0,
                     [tag](Machine &m) {
                         tag(m);
                         storeAt(m, 0, 0, 1);
                         storeAt(m, 0, 0, 2);
                     },
                     3, [](Machine &m) {
                         return m.bm()->stats().stores.value() == 2 &&
                                m.bm()->dataChannel()
                                        .stats()
                                        .messages.value() == 1;
                     }});
    // Node 1 queues behind node 0, which holds the token.
    cases.push_back({"TokenQueue", MacKind::Token, 0.0,
                     [tag](Machine &m) {
                         tag(m);
                         storeAt(m, 0, 0, 1);
                         storeAt(m, 1, 0, 2);
                     },
                     3, [](Machine &m) {
                         const auto &st = m.bm()->macProtocol().stats();
                         return st.tokenWaits.value() == 1 &&
                                st.tokenWaitCycles.value() == 0;
                     }});
    // Three colliders queue; node 1 is served first, 2 and 3 wait.
    cases.push_back({"FuzzyGrantQueue", MacKind::FuzzyToken, 0.0,
                     [tag](Machine &m) {
                         tag(m);
                         for (NodeId n = 1; n <= 3; ++n)
                             storeAt(m, n, 0, n);
                     },
                     4, [](Machine &m) {
                         const auto &st = m.bm()->macProtocol().stats();
                         return st.tokenWaits.value() == 3 &&
                                st.fuzzyGrabs.value() == 0;
                     }});
    // Node 0 is on the air; node 1 waits for the channel to free.
    cases.push_back({"Arbitration", MacKind::Brs, 0.0,
                     [tag](Machine &m) {
                         tag(m);
                         storeAt(m, 0, 0, 1);
                         storeAt(m, 1, 1, 2);
                     },
                     3, [](Machine &m) {
                         const auto &st = m.bm()->dataChannel().stats();
                         return st.messages.value() == 1 &&
                                st.collisions.value() == 0;
                     }});
    // Eight colliders back off.
    cases.push_back({"BrsBackoff", MacKind::Brs, 0.0,
                     [tag](Machine &m) {
                         tag(m);
                         for (NodeId n = 0; n < 8; ++n)
                             storeAt(m, n, 0, n + 1);
                     },
                     12, [](Machine &m) {
                         const auto &st = m.bm()->macProtocol().stats();
                         return st.backoffCycles.value() > 0 &&
                                m.bm()->dataChannel()
                                        .stats()
                                        .deliveryLatency.count() < 8;
                     }});
    // Every frame is lost: the sender waits out its first ack window.
    cases.push_back({"AckTimeout", MacKind::Brs, 100.0,
                     [tag](Machine &m) {
                         tag(m);
                         storeAt(m, 0, 0, 1);
                     },
                     8, [](Machine &m) {
                         const auto &st = m.bm()->macProtocol().stats();
                         return st.ackTimeouts.value() == 1 &&
                                st.retransmits.value() == 0;
                     }});
    return cases;
}

/** Everything a rerun after the reset must reproduce. */
std::vector<std::uint64_t>
digest(Machine &m)
{
    const auto &ch = m.bm()->dataChannel().stats();
    const auto &mac = m.bm()->macProtocol().stats();
    return {m.engine().now(),
            m.engine().eventsExecuted(),
            ch.messages.value(),
            ch.collisions.value(),
            ch.drops.value(),
            ch.busyCycles.value(),
            mac.acquires.value(),
            mac.tokenWaits.value(),
            mac.tokenWaitCycles.value(),
            mac.backoffCycles.value(),
            mac.ackTimeouts.value(),
            mac.retransmits.value(),
            m.bm()->stats().sendReissues.value(),
            m.bm()->storeArray().fingerprint()};
}

TEST(ParkedSendReset, ResetFreesEveryFrameAndLeavesNoWaiter)
{
    for (const ParkCase &c : parkCases()) {
        SCOPED_TRACE(c.name);
        const MachineConfig cfg = configOf(c);
        Machine m(cfg);
        const std::uint64_t live = wisync::coro::framePool().liveFrames();
        c.spawn(m);
        EXPECT_FALSE(m.engine().run(c.stopAt));
        ASSERT_TRUE(c.parked(m)) << "the send is not in its wait state";
        EXPECT_GT(wisync::coro::framePool().liveFrames(), live);
        m.reset();
        EXPECT_EQ(wisync::coro::framePool().liveFrames(), live);
        EXPECT_EQ(m.engine().pendingEvents(), 0u);

        // A stale attempt or waiter would act on the rerun: it must
        // match a fresh machine event for event.
        constexpr Cycle kRerun = 400;
        c.spawn(m);
        m.engine().run(kRerun);
        Machine fresh(cfg);
        c.spawn(fresh);
        fresh.engine().run(kRerun);
        EXPECT_EQ(digest(m), digest(fresh));
    }
}

} // namespace
