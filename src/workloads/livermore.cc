#include "workloads/livermore.hh"

#include <algorithm>
#include <memory>

#include "core/machine.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sync/factory.hh"
#include "sync/wisync_sync.hh"

namespace wisync::workloads {

namespace {

/** Line-granular timing access helper: one coherent op per new line. */
class LineToucher
{
  public:
    explicit LineToucher(core::ThreadCtx &ctx) : ctx_(ctx) {}

    coro::Task<void>
    read(sim::Addr addr)
    {
        const sim::Addr line = addr & ~sim::Addr{63};
        if (line != lastRead_) {
            lastRead_ = line;
            co_await ctx_.load(addr);
        }
    }

    coro::Task<void>
    write(sim::Addr addr, std::uint64_t value)
    {
        const sim::Addr line = addr & ~sim::Addr{63};
        if (line != lastWrite_) {
            lastWrite_ = line;
            co_await ctx_.store(addr, value);
        }
    }

  private:
    core::ThreadCtx &ctx_;
    sim::Addr lastRead_ = ~sim::Addr{0};
    sim::Addr lastWrite_ = ~sim::Addr{0};
};

/** Reduction cell with reset, on the config's best primitive. */
struct RedCell
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

    coro::Task<void>
    add(core::ThreadCtx &ctx, std::uint64_t delta)
    {
        if (bm) {
            co_await ctx.bmFetchAdd(bmAddr, delta);
            co_return;
        }
        for (;;) {
            const std::uint64_t cur = co_await ctx.load(memAddr);
            const auto r = co_await ctx.cas(memAddr, cur, cur + delta);
            if (r.success)
                co_return;
        }
    }

    coro::Task<std::uint64_t>
    read(core::ThreadCtx &ctx)
    {
        if (bm)
            co_return co_await ctx.bmLoad(bmAddr);
        co_return co_await ctx.load(memAddr);
    }

    coro::Task<void>
    reset(core::ThreadCtx &ctx)
    {
        if (bm)
            co_await ctx.bmStore(bmAddr, 0);
        else
            co_await ctx.store(memAddr, 0);
    }

    bool bm = false;
    sim::BmAddr bmAddr = 0;
    sim::Addr memAddr = 0;
};

/** Shared run state. */
struct LivState
{
    core::Machine *machine = nullptr;
    sync::Barrier *barrier = nullptr;
    LivermoreParams params;
    std::uint32_t threads = 0;
    sim::Addr xAddr = 0; // x (loop 2), z (3), w (6)
    sim::Addr vAddr = 0; // v (loop 2), x (3), b (6)
    RedCell cells[2];
    std::uint64_t q = 0; // loop 3 result
};

std::uint64_t
fmem(core::Machine &m, sim::Addr base, std::uint64_t idx)
{
    return m.memory().read64(base + idx * 8);
}

void
fmemw(core::Machine &m, sim::Addr base, std::uint64_t idx,
      std::uint64_t value)
{
    m.memory().write64(base + idx * 8, value);
}

/** [begin, end) chunk of @p count items for thread @p t of @p nt. */
std::pair<std::uint64_t, std::uint64_t>
chunkOf(std::uint64_t count, std::uint32_t t, std::uint32_t nt)
{
    const std::uint64_t per = (count + nt - 1) / nt;
    const std::uint64_t begin = std::min<std::uint64_t>(count, t * per);
    const std::uint64_t end = std::min<std::uint64_t>(count, begin + per);
    return {begin, end};
}

// ------------------------------------------------------- loop 2 (ICCG)

coro::Task<void>
iccgThread(core::ThreadCtx &ctx, LivState *st, std::uint32_t t)
{
    // Each elimination level reads region [in_base, in_base+in_cnt)
    // and writes [out_base, out_base+out_cnt). The one-element pad
    // between the regions removes the serial kernel's boundary
    // dependence (x[k+1] hitting the level's first output) — the data
    // alignment the paper applies following Sampson et al. [37].
    core::Machine &m = *st->machine;
    for (std::uint32_t pass = 0; pass < st->params.passes; ++pass) {
        std::uint64_t in_base = 0;
        std::uint64_t in_cnt = st->params.n;
        while (in_cnt > 1) {
            const std::uint64_t out_base = in_base + in_cnt + 1;
            const std::uint64_t out_cnt = in_cnt / 2;
            const auto [jb, je] = chunkOf(out_cnt, t, st->threads);
            LineToucher touch(ctx);
            for (std::uint64_t j = jb; j < je; ++j) {
                const std::uint64_t k = in_base + 1 + 2 * j;
                const std::uint64_t i = out_base + j;
                co_await touch.read(st->xAddr + (k - 1) * 8);
                co_await touch.read(st->xAddr + (k + 1) * 8);
                co_await touch.read(st->vAddr + k * 8);
                const std::uint64_t val =
                    fmem(m, st->xAddr, k) -
                    fmem(m, st->vAddr, k) * fmem(m, st->xAddr, k - 1) -
                    fmem(m, st->vAddr, k + 1) * fmem(m, st->xAddr, k + 1);
                fmemw(m, st->xAddr, i, val);
                co_await touch.write(st->xAddr + i * 8, val);
                co_await ctx.compute(5);
            }
            co_await st->barrier->wait(ctx);
            in_base = out_base;
            in_cnt = out_cnt;
        }
    }
}

// ---------------------------------------------- loop 3 (inner product)

coro::Task<void>
innerProductThread(core::ThreadCtx &ctx, LivState *st, std::uint32_t t)
{
    core::Machine &m = *st->machine;
    for (std::uint32_t pass = 0; pass < st->params.passes; ++pass) {
        const auto [kb, ke] = chunkOf(st->params.n, t, st->threads);
        LineToucher touch(ctx);
        std::uint64_t local = 0;
        for (std::uint64_t k = kb; k < ke; ++k) {
            co_await touch.read(st->xAddr + k * 8);
            co_await touch.read(st->vAddr + k * 8);
            local += fmem(m, st->xAddr, k) * fmem(m, st->vAddr, k);
            co_await ctx.compute(2);
        }
        co_await st->cells[pass % 2].add(ctx, local);
        co_await st->barrier->wait(ctx);
        if (t == 0) {
            st->q = co_await st->cells[pass % 2].read(ctx);
            co_await st->cells[pass % 2].reset(ctx);
        }
    }
}

// ------------------------------------- loop 6 (general linear recurrence)

coro::Task<void>
linearRecurrenceThread(core::ThreadCtx &ctx, LivState *st, std::uint32_t t)
{
    core::Machine &m = *st->machine;
    const std::uint64_t n = st->params.n;
    for (std::uint32_t pass = 0; pass < st->params.passes; ++pass) {
        // Re-initialise w on pass start (thread 0, functional only).
        if (t == 0)
            for (std::uint64_t i = 0; i < n; ++i)
                fmemw(m, st->xAddr, i, livermoreInput(0, i));
        co_await st->barrier->wait(ctx);
        for (std::uint64_t i = 1; i < n; ++i) {
            const auto [kb, ke] = chunkOf(i, t, st->threads);
            RedCell &cell = st->cells[i % 2];
            if (kb < ke) {
                LineToucher touch(ctx);
                std::uint64_t local = 0;
                for (std::uint64_t k = kb; k < ke; ++k) {
                    co_await touch.read(st->xAddr + k * 8);
                    // b streams from memory: one timing load per line;
                    // the value is generated (b is never written).
                    co_await touch.read(st->vAddr + (i * n + k) * 8);
                    local += livermoreInput(2, i * n + k) *
                             fmem(m, st->xAddr, k);
                    co_await ctx.compute(2);
                }
                co_await cell.add(ctx, local);
            }
            co_await st->barrier->wait(ctx); // all partials in
            if (t == 0) {
                const std::uint64_t total = co_await cell.read(ctx);
                const std::uint64_t wi =
                    fmem(m, st->xAddr, i) + total;
                fmemw(m, st->xAddr, i, wi);
                co_await ctx.store(st->xAddr + i * 8, wi);
                co_await cell.reset(ctx);
            }
            // Fork-join: the second barrier publishes w[i] before any
            // thread starts the level-(i+1) partial sums that read it.
            co_await st->barrier->wait(ctx);
        }
        co_await st->barrier->wait(ctx);
    }
}

} // namespace

std::uint64_t
iccgArraySize(std::uint32_t n)
{
    // n inputs plus padded halving levels: 2n + log2(n) + slack.
    return 2 * n + 40;
}

std::uint64_t
livermoreInput(std::uint32_t s, std::uint32_t i)
{
    return sim::mix64((static_cast<std::uint64_t>(s) << 32) | i) & 0xFFFF;
}

std::vector<std::uint64_t>
iccgReference(std::vector<std::uint64_t> x,
              const std::vector<std::uint64_t> &v, std::uint32_t n)
{
    std::uint64_t in_base = 0;
    std::uint64_t in_cnt = n;
    while (in_cnt > 1) {
        const std::uint64_t out_base = in_base + in_cnt + 1;
        const std::uint64_t out_cnt = in_cnt / 2;
        for (std::uint64_t j = 0; j < out_cnt; ++j) {
            const std::uint64_t k = in_base + 1 + 2 * j;
            x[out_base + j] =
                x[k] - v[k] * x[k - 1] - v[k + 1] * x[k + 1];
        }
        in_base = out_base;
        in_cnt = out_cnt;
    }
    return x;
}

std::uint64_t
innerProductReference(const std::vector<std::uint64_t> &z,
                      const std::vector<std::uint64_t> &x)
{
    std::uint64_t q = 0;
    for (std::size_t i = 0; i < z.size(); ++i)
        q += z[i] * x[i];
    return q;
}

std::vector<std::uint64_t>
linearRecurrenceReference(std::vector<std::uint64_t> w,
                          const std::vector<std::uint64_t> &b,
                          std::uint32_t n)
{
    for (std::uint64_t i = 1; i < n; ++i)
        for (std::uint64_t k = 0; k < i; ++k)
            w[i] += b[i * n + k] * w[k];
    return w;
}

namespace {

LivermoreOutput
runImplOn(LivermoreLoop loop, core::Machine &machine,
          const LivermoreParams &params, bool collect)
{
    const std::uint32_t cores = machine.config().numCores;
    sync::SyncFactory factory(machine);

    LivState st;
    st.machine = &machine;
    st.params = params;
    st.threads = cores;

    std::vector<sim::NodeId> nodes;
    for (sim::NodeId n = 0; n < cores; ++n)
        nodes.push_back(n);
    auto barrier = factory.makeBarrier(nodes);
    st.barrier = barrier.get();

    const std::uint64_t n = params.n;
    switch (loop) {
      case LivermoreLoop::Iccg:
        st.xAddr = machine.allocMem(iccgArraySize(params.n) * 8, 64);
        st.vAddr = machine.allocMem(iccgArraySize(params.n) * 8, 64);
        for (std::uint64_t i = 0; i < iccgArraySize(params.n); ++i) {
            machine.memory().write64(st.xAddr + i * 8,
                                     livermoreInput(0, i));
            machine.memory().write64(st.vAddr + i * 8,
                                     livermoreInput(1, i));
        }
        break;
      case LivermoreLoop::InnerProduct:
        st.xAddr = machine.allocMem(n * 8, 64); // z
        st.vAddr = machine.allocMem(n * 8, 64); // x
        for (std::uint64_t i = 0; i < n; ++i) {
            machine.memory().write64(st.xAddr + i * 8,
                                     livermoreInput(0, i));
            machine.memory().write64(st.vAddr + i * 8,
                                     livermoreInput(1, i));
        }
        st.cells[0].init(machine, 1);
        st.cells[1].init(machine, 1);
        break;
      case LivermoreLoop::LinearRecurrence:
        st.xAddr = machine.allocMem(n * 8, 64); // w
        // b is a streamed address range; values are generated, so no
        // functional initialisation (n^2 words of timing-only space).
        st.vAddr = machine.allocMem(n * n * 8, 64);
        st.cells[0].init(machine, 1);
        st.cells[1].init(machine, 1);
        break;
    }

    for (sim::NodeId nd = 0; nd < cores; ++nd) {
        const std::uint32_t t = nd;
        switch (loop) {
          case LivermoreLoop::Iccg:
            machine.spawnThread(nd, [&st, t](core::ThreadCtx &ctx) {
                return iccgThread(ctx, &st, t);
            });
            break;
          case LivermoreLoop::InnerProduct:
            machine.spawnThread(nd, [&st, t](core::ThreadCtx &ctx) {
                return innerProductThread(ctx, &st, t);
            });
            break;
          case LivermoreLoop::LinearRecurrence:
            machine.spawnThread(nd, [&st, t](core::ThreadCtx &ctx) {
                return linearRecurrenceThread(ctx, &st, t);
            });
            break;
        }
    }

    LivermoreOutput out;
    out.result.completed = machine.run(8'000'000'000ull);
    out.result.cycles = machine.engine().now();
    out.result.operations = params.passes;
    captureChannelStats(out.result, machine);

    if (collect) {
        switch (loop) {
          case LivermoreLoop::Iccg:
            for (std::uint64_t i = 0; i < iccgArraySize(params.n); ++i)
                out.values.push_back(
                    machine.memory().read64(st.xAddr + i * 8));
            break;
          case LivermoreLoop::InnerProduct:
            out.values.push_back(st.q);
            break;
          case LivermoreLoop::LinearRecurrence:
            for (std::uint64_t i = 0; i < n; ++i)
                out.values.push_back(
                    machine.memory().read64(st.xAddr + i * 8));
            break;
        }
    }
    return out;
}

} // namespace

KernelResult
runLivermore(LivermoreLoop loop, core::ConfigKind kind,
             std::uint32_t cores, const LivermoreParams &params,
             core::Variant variant)
{
    core::Machine machine(
        core::MachineConfig::make(kind, cores, variant));
    return runImplOn(loop, machine, params, false).result;
}

KernelResult
runLivermoreOn(LivermoreLoop loop, core::Machine &machine,
               const LivermoreParams &params)
{
    return runImplOn(loop, machine, params, false).result;
}

LivermoreOutput
runLivermoreVerified(LivermoreLoop loop, core::ConfigKind kind,
                     std::uint32_t cores, const LivermoreParams &params)
{
    core::Machine machine(
        core::MachineConfig::make(kind, cores, core::Variant::Default));
    return runImplOn(loop, machine, params, true);
}

} // namespace wisync::workloads
