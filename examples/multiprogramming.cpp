/**
 * @file
 * Multiprogramming on one WiSync chip (paper §3.1, §4.4): two
 * programs share the Broadcast Memory, each entry is PID-tagged, and
 * a stray access from the wrong program raises a protection fault
 * instead of leaking data.
 *
 * Build & run:
 *   ./build/examples/multiprogramming
 */

#include <cstdio>
#include <vector>

#include "bm/bm_system.hh"
#include "core/machine.hh"
#include "sync/wisync_sync.hh"

using namespace wisync;

namespace {

/** Program A: cores 0-3 run a reduction on its own BM word. */
coro::Task<void>
programA(core::ThreadCtx &ctx, sim::BmAddr cell)
{
    for (int i = 0; i < 10; ++i) {
        co_await ctx.compute(200);
        co_await ctx.bmFetchAdd(cell, 1);
    }
}

/** Program B: cores 4-7 run a flag-passing ring on its own words. */
coro::Task<void>
programB(core::ThreadCtx &ctx, sim::BmAddr token, std::uint32_t slot,
         std::uint32_t ring)
{
    for (std::uint64_t round = 0; round < 5; ++round) {
        const std::uint64_t my_turn = round * ring + slot;
        co_await ctx.bmSpinUntil(token, my_turn);
        co_await ctx.bmStore(token, my_turn + 1);
    }
}

/** A buggy thread of program B that touches program A's memory. */
coro::Task<void>
strayAccess(core::ThreadCtx &ctx, sim::BmAddr foreign, bool *faulted)
{
    try {
        co_await ctx.bmLoad(foreign);
    } catch (const bm::ProtectionFault &f) {
        *faulted = true;
        std::printf("protection fault: PID %u touched BM word %u "
                    "(owned by another program)\n",
                    f.pid, f.addr);
    }
}

} // namespace

int
main()
{
    core::Machine machine(
        core::MachineConfig::make(core::ConfigKind::WiSync, 8));
    constexpr sim::Pid kPidA = 1, kPidB = 2;

    // OS-style allocation: tag each program's chunk of the shared
    // physical BM page with its PID (§4.4's chunk-level protection).
    const sim::BmAddr cell_a = sync::setupBmWords(machine, 1, kPidA);
    const sim::BmAddr token_b = sync::setupBmWords(machine, 1, kPidB);

    for (sim::NodeId n = 0; n < 4; ++n) {
        machine.spawnThread(
            n,
            [&](core::ThreadCtx &ctx) { return programA(ctx, cell_a); },
            kPidA);
    }
    for (sim::NodeId n = 4; n < 8; ++n) {
        const std::uint32_t slot = n - 4;
        machine.spawnThread(
            n,
            [&, slot](core::ThreadCtx &ctx) {
                return programB(ctx, token_b, slot, 4);
            },
            kPidB);
    }
    bool faulted = false;
    machine.spawnThread(
        4,
        [&](core::ThreadCtx &ctx) {
            return strayAccess(ctx, cell_a, &faulted);
        },
        kPidB);

    machine.run();

    std::printf("program A total: %llu (expected 40)\n",
                static_cast<unsigned long long>(
                    machine.bm()->storeArray().read(0, cell_a)));
    std::printf("program B token: %llu (expected 20)\n",
                static_cast<unsigned long long>(
                    machine.bm()->storeArray().read(0, token_b)));
    std::printf("stray access faulted: %s\n", faulted ? "yes" : "no");
    std::printf("simulated cycles: %llu\n",
                static_cast<unsigned long long>(machine.engine().now()));
    return faulted ? 0 : 1;
}
