/**
 * @file
 * Ablation of the Bulk transfer optimisation (§4.1).
 *
 * A Bulk message moves 4 words in 15 cycles instead of 4x5: the
 * trailing words skip the collision-listen cycle and headers. This
 * bench runs the producer-consumer pattern (§4.3.4) with bulk
 * transfers versus four scalar stores and reports the achieved
 * hand-off rate, isolating the design choice's benefit.
 *
 * The two variants are the grid of a (tiny) ParallelSweep: each body
 * spawns its own threads on the prepared machine and reports cycles
 * as a KernelResult.
 */

#include <array>
#include <iostream>

#include "core/machine.hh"
#include "harness/parallel_sweep.hh"
#include "harness/report.hh"
#include "sync/wisync_sync.hh"

using namespace wisync;

namespace {

constexpr int kMsgs = 200;

coro::Task<void>
producerBulk(core::ThreadCtx &ctx, sync::ProducerConsumer *pc, int msgs)
{
    for (int i = 0; i < msgs; ++i)
        co_await pc->produce(ctx, {std::uint64_t(i), 1, 2, 3});
}

coro::Task<void>
consumerBulk(core::ThreadCtx &ctx, sync::ProducerConsumer *pc, int msgs)
{
    for (int i = 0; i < msgs; ++i)
        co_await pc->consume(ctx);
}

workloads::KernelResult
runBulk(core::Machine &m)
{
    sync::ProducerConsumer pc(m, 1);
    m.spawnThread(0, [&pc](core::ThreadCtx &ctx) {
        return producerBulk(ctx, &pc, kMsgs);
    });
    m.spawnThread(1, [&pc](core::ThreadCtx &ctx) {
        return consumerBulk(ctx, &pc, kMsgs);
    });
    workloads::KernelResult r;
    r.completed = m.run();
    r.cycles = m.engine().now();
    r.operations = kMsgs;
    workloads::captureChannelStats(r, m);
    return r;
}

/** Scalar variant: 4 single-word stores + flag. */
struct ScalarChannel
{
    sim::BmAddr data;
    sim::BmAddr flag;
};

coro::Task<void>
producerScalar(core::ThreadCtx &ctx, ScalarChannel ch, int msgs)
{
    for (int i = 0; i < msgs; ++i) {
        co_await ctx.bmSpinUntil(ch.flag, 0);
        for (std::uint32_t w = 0; w < 4; ++w)
            co_await ctx.bmStore(ch.data + w, static_cast<std::uint64_t>(i));
        co_await ctx.bmStore(ch.flag, 1);
    }
}

coro::Task<void>
consumerScalar(core::ThreadCtx &ctx, ScalarChannel ch, int msgs)
{
    for (int i = 0; i < msgs; ++i) {
        co_await ctx.bmSpinUntil(ch.flag, 1);
        co_await ctx.bmBulkLoad(ch.data);
        co_await ctx.bmStore(ch.flag, 0);
    }
}

workloads::KernelResult
runScalar(core::Machine &m)
{
    ScalarChannel ch;
    ch.data = sync::setupBmWords(m, 4, 1);
    ch.flag = sync::setupBmWords(m, 1, 1);
    m.spawnThread(0, [ch](core::ThreadCtx &ctx) {
        return producerScalar(ctx, ch, kMsgs);
    });
    m.spawnThread(1, [ch](core::ThreadCtx &ctx) {
        return consumerScalar(ctx, ch, kMsgs);
    });
    workloads::KernelResult r;
    r.completed = m.run();
    r.cycles = m.engine().now();
    r.operations = kMsgs;
    workloads::captureChannelStats(r, m);
    return r;
}

} // namespace

int
main()
{
    const auto cfg =
        core::MachineConfig::make(core::ConfigKind::WiSync, 2);
    harness::ParallelSweep sweep;
    sweep.add(cfg, runBulk);
    sweep.add(cfg, runScalar);
    const auto results = sweep.run();
    const sim::Cycle bulk_cycles = results[0].cycles;
    const sim::Cycle scalar_cycles = results[1].cycles;

    harness::TextTable tab("Ablation: Bulk vs scalar BM transfers "
                           "(producer-consumer, 4-word messages)");
    tab.header({"Variant", "Cycles", "Cycles/message"});
    tab.row({"Bulk store (15-cycle msg)", harness::fmtCycles(bulk_cycles),
             harness::fmt(static_cast<double>(bulk_cycles) / kMsgs, 1)});
    tab.row({"4x scalar stores (4x5-cycle)",
             harness::fmtCycles(scalar_cycles),
             harness::fmt(static_cast<double>(scalar_cycles) / kMsgs, 1)});
    tab.row({"Bulk advantage",
             harness::fmt(static_cast<double>(scalar_cycles) /
                              static_cast<double>(bulk_cycles)) +
                 "x",
             ""});
    tab.print(std::cout);
    return 0;
}
