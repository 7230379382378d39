/**
 * @file
 * Producer-consumer pipeline over the Broadcast Memory (paper §4.3.4):
 * a producer streams 4-word records to a consumer with Bulk transfers
 * and a full/empty flag, and the same pattern is repeated over plain
 * coherent memory for comparison.
 *
 * Build & run:
 *   ./build/examples/producer_consumer
 */

#include <cstdio>

#include "core/machine.hh"
#include "sync/wisync_sync.hh"

using namespace wisync;

namespace {

constexpr int kRecords = 100;

coro::Task<void>
bmProducer(core::ThreadCtx &ctx, sync::ProducerConsumer *pc)
{
    for (int i = 0; i < kRecords; ++i) {
        const auto v = static_cast<std::uint64_t>(i);
        co_await pc->produce(ctx, {v, v * v, v + 1, v ^ 0xFF});
    }
}

coro::Task<void>
bmConsumer(core::ThreadCtx &ctx, sync::ProducerConsumer *pc,
           std::uint64_t *checksum)
{
    for (int i = 0; i < kRecords; ++i) {
        const auto rec = co_await pc->consume(ctx);
        *checksum += rec[0] + rec[1] + rec[2] + rec[3];
    }
}

/** The same hand-off over coherent memory (flag + 4-word record). */
coro::Task<void>
memProducer(core::ThreadCtx &ctx, sim::Addr data, sim::Addr flag)
{
    for (int i = 0; i < kRecords; ++i) {
        const auto v = static_cast<std::uint64_t>(i);
        co_await ctx.spinUntil(flag, 0);
        co_await ctx.store(data + 0, v);
        co_await ctx.store(data + 8, v * v);
        co_await ctx.store(data + 16, v + 1);
        co_await ctx.store(data + 24, v ^ 0xFF);
        co_await ctx.store(flag, 1);
    }
}

coro::Task<void>
memConsumer(core::ThreadCtx &ctx, sim::Addr data, sim::Addr flag,
            std::uint64_t *checksum)
{
    for (int i = 0; i < kRecords; ++i) {
        co_await ctx.spinUntil(flag, 1);
        for (int w = 0; w < 4; ++w)
            *checksum += co_await ctx.load(data + w * 8);
        co_await ctx.store(flag, 0);
    }
}

} // namespace

int
main()
{
    // --- WiSync: Bulk transfers over the Data channel -------------
    std::uint64_t bm_checksum = 0;
    sim::Cycle bm_cycles = 0;
    {
        core::Machine m(
            core::MachineConfig::make(core::ConfigKind::WiSync, 2));
        sync::ProducerConsumer pc(m, 1);
        m.spawnThread(0, [&](core::ThreadCtx &ctx) {
            return bmProducer(ctx, &pc);
        });
        m.spawnThread(1, [&](core::ThreadCtx &ctx) {
            return bmConsumer(ctx, &pc, &bm_checksum);
        });
        m.run();
        bm_cycles = m.engine().now();
    }

    // --- Baseline: the same protocol through the cache hierarchy --
    std::uint64_t mem_checksum = 0;
    sim::Cycle mem_cycles = 0;
    {
        core::Machine m(
            core::MachineConfig::make(core::ConfigKind::Baseline, 2));
        const sim::Addr data = m.allocMem(64, 64);
        const sim::Addr flag = m.allocMem(64, 64);
        m.spawnThread(0, [&](core::ThreadCtx &ctx) {
            return memProducer(ctx, data, flag);
        });
        m.spawnThread(1, [&](core::ThreadCtx &ctx) {
            return memConsumer(ctx, data, flag, &mem_checksum);
        });
        m.run();
        mem_cycles = m.engine().now();
    }

    std::printf("records: %d\n", kRecords);
    std::printf("WiSync (bulk BM):  %8llu cycles, checksum %llu\n",
                static_cast<unsigned long long>(bm_cycles),
                static_cast<unsigned long long>(bm_checksum));
    std::printf("Baseline (cached): %8llu cycles, checksum %llu\n",
                static_cast<unsigned long long>(mem_cycles),
                static_cast<unsigned long long>(mem_checksum));
    std::printf("WiSync advantage:  %.2fx\n",
                static_cast<double>(mem_cycles) /
                    static_cast<double>(bm_cycles));
    return bm_checksum == mem_checksum ? 0 : 1;
}
