#include "workloads/cas_kernels.hh"

#include <vector>

#include "core/machine.hh"
#include "sim/logging.hh"
#include "sync/wisync_sync.hh"

namespace wisync::workloads {

namespace {

/**
 * A shared word that is CASed either in the BM (WiSync configs,
 * Fig. 4(b) protocol with AFB retry) or in coherent memory.
 */
struct SharedWord
{
    void
    init(core::Machine &m, sim::Pid pid)
    {
        if (m.config().hasWireless()) {
            bm = true;
            bmAddr = sync::setupBmWords(m, 1, pid);
        } else {
            bm = false;
            memAddr = m.allocMem(64, 64);
        }
    }

    coro::Task<std::uint64_t>
    load(core::ThreadCtx &ctx)
    {
        if (bm)
            co_return co_await ctx.bmLoad(bmAddr);
        co_return co_await ctx.load(memAddr);
    }

    /**
     * One CAS attempt; true on success. On WiSync an atomicity
     * failure (AFB) reads as failure and the caller retries, exactly
     * as the software protocol prescribes.
     */
    coro::Task<bool>
    cas(core::ThreadCtx &ctx, std::uint64_t expected, std::uint64_t desired)
    {
        if (bm) {
            const auto r = co_await ctx.bmCas(bmAddr, expected, desired);
            co_return r.succeeded();
        }
        const auto r = co_await ctx.cas(memAddr, expected, desired);
        co_return r.success;
    }

    bool bm = false;
    sim::BmAddr bmAddr = 0;
    sim::Addr memAddr = 0;
};

struct CasState
{
    core::Machine *machine = nullptr;
    CasKernelParams params;
    SharedWord head;
    SharedWord tail; // FIFO only
    std::uint64_t successes = 0;
};

/** Next-pointer of a node (nodes live in regular coherent memory). */
coro::Task<void>
linkNode(core::ThreadCtx &ctx, sim::Addr node, std::uint64_t next)
{
    co_await ctx.store(node, next);
}

coro::Task<void>
addThread(core::ThreadCtx &ctx, CasState *st, sim::Addr pool,
          std::uint32_t pool_nodes)
{
    auto &eng = ctx.machine().engine();
    std::uint32_t next_node = 0;
    while (eng.now() < st->params.duration) {
        co_await ctx.compute(st->params.criticalSectionInstr);
        // Take a node from the private pool and push it: CAS on head.
        const sim::Addr node = pool + (next_node % pool_nodes) * 64;
        ++next_node;
        for (;;) {
            const std::uint64_t old = co_await st->head.load(ctx);
            co_await linkNode(ctx, node, old);
            // Awaited into a local, not in the if: GCC 12 can lay out
            // the frame of a co_await in a condition wrongly.
            const bool swapped = co_await st->head.cas(ctx, old, node);
            if (swapped) {
                ++st->successes;
                break;
            }
            if (eng.now() >= st->params.duration)
                break;
        }
    }
}

coro::Task<void>
lifoThread(core::ThreadCtx &ctx, CasState *st, sim::Addr pool,
           std::uint32_t pool_nodes)
{
    auto &eng = ctx.machine().engine();
    std::uint32_t next_node = 0;
    bool push = true;
    while (eng.now() < st->params.duration) {
        co_await ctx.compute(st->params.criticalSectionInstr);
        for (;;) {
            const std::uint64_t old = co_await st->head.load(ctx);
            if (push || old == 0) {
                const sim::Addr node =
                    pool + (next_node % pool_nodes) * 64;
                ++next_node;
                co_await linkNode(ctx, node, old);
                const bool swapped = co_await st->head.cas(ctx, old, node);
                if (swapped) {
                    ++st->successes;
                    break;
                }
            } else {
                const std::uint64_t next = co_await ctx.load(old);
                const bool swapped = co_await st->head.cas(ctx, old, next);
                if (swapped) {
                    ++st->successes;
                    break;
                }
            }
            if (eng.now() >= st->params.duration)
                break;
        }
        push = !push;
    }
}

coro::Task<void>
fifoThread(core::ThreadCtx &ctx, CasState *st, sim::Addr pool,
           std::uint32_t pool_nodes)
{
    auto &eng = ctx.machine().engine();
    std::uint32_t next_node = 0;
    bool enqueue = true;
    while (eng.now() < st->params.duration) {
        co_await ctx.compute(st->params.criticalSectionInstr);
        for (;;) {
            if (enqueue) {
                const sim::Addr node =
                    pool + (next_node % pool_nodes) * 64;
                ++next_node;
                co_await linkNode(ctx, node, 0);
                const std::uint64_t old = co_await st->tail.load(ctx);
                const bool swapped = co_await st->tail.cas(ctx, old, node);
                if (swapped) {
                    // Link the predecessor (plain store; see header —
                    // simplified Michael-Scott without helping).
                    if (old != 0)
                        co_await linkNode(ctx, old, node);
                    ++st->successes;
                    break;
                }
            } else {
                // Dequeue past the dummy: the queue is empty when the
                // head node has no successor (avoids touching the
                // contended tail word on the consumer side).
                const std::uint64_t old = co_await st->head.load(ctx);
                if (old == 0) {
                    enqueue = true;
                    continue;
                }
                const std::uint64_t next = co_await ctx.load(old);
                if (next == 0) {
                    enqueue = true; // empty: produce instead
                    continue;
                }
                const bool swapped = co_await st->head.cas(ctx, old, next);
                if (swapped) {
                    ++st->successes;
                    break;
                }
            }
            if (eng.now() >= st->params.duration)
                break;
        }
        enqueue = !enqueue;
    }
}

} // namespace

KernelResult
runCasKernel(CasKernel kernel, core::ConfigKind kind, std::uint32_t cores,
             const CasKernelParams &params)
{
    core::Machine machine(core::MachineConfig::make(kind, cores));
    return runCasKernelOn(kernel, machine, params);
}

KernelResult
runCasKernelOn(CasKernel kernel, core::Machine &machine,
               const CasKernelParams &params)
{
    const std::uint32_t cores = machine.config().numCores;
    CasState st;
    st.machine = &machine;
    st.params = params;
    st.head.init(machine, 1);
    if (kernel == CasKernel::Fifo) {
        st.tail.init(machine, 1);
        // Seed the queue with one dummy node so head/tail are nonzero.
        const sim::Addr dummy = machine.allocMem(64, 64);
        machine.memory().write64(dummy, 0);
        if (st.head.bm) {
            machine.bm()->storeArray().writeAll(st.head.bmAddr, dummy);
            machine.bm()->storeArray().writeAll(st.tail.bmAddr, dummy);
        } else {
            machine.memory().write64(st.head.memAddr, dummy);
            machine.memory().write64(st.tail.memAddr, dummy);
        }
    }

    constexpr std::uint32_t kPoolNodes = 64;
    for (sim::NodeId n = 0; n < cores; ++n) {
        const sim::Addr pool = machine.allocMem(kPoolNodes * 64, 64);
        switch (kernel) {
          case CasKernel::Add:
            machine.spawnThread(n, [&st, pool](core::ThreadCtx &ctx) {
                return addThread(ctx, &st, pool, kPoolNodes);
            });
            break;
          case CasKernel::Lifo:
            machine.spawnThread(n, [&st, pool](core::ThreadCtx &ctx) {
                return lifoThread(ctx, &st, pool, kPoolNodes);
            });
            break;
          case CasKernel::Fifo:
            machine.spawnThread(n, [&st, pool](core::ThreadCtx &ctx) {
                return fifoThread(ctx, &st, pool, kPoolNodes);
            });
            break;
        }
    }

    KernelResult result;
    result.completed = machine.run(params.duration * 100);
    result.cycles = params.duration;
    result.operations = st.successes;
    captureChannelStats(result, machine);
    return result;
}

} // namespace wisync::workloads
