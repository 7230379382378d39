#include "core/machine.hh"

#include <utility>

#include "sim/logging.hh"

namespace wisync::core {

namespace {

/** fatal() on a config validate() rejects: the subsystems assume it. */
void
requireValid(const MachineConfig &cfg)
{
    if (const auto error = cfg.validate())
        WISYNC_FATAL("invalid MachineConfig: %s: %s", error->field.c_str(),
                     error->message.c_str());
}

} // namespace

Machine::Machine(const MachineConfig &cfg) : cfg_(cfg), rng_(cfg.seed)
{
    requireValid(cfg_);
    mesh_ = std::make_unique<noc::Mesh>(engine_, cfg_.mesh);
    mem_ = std::make_unique<mem::MemSystem>(engine_, *mesh_, memory_,
                                            cfg_.numCores, cfg_.mem);
    // The wireless substrate is always built (it is small next to the
    // cache/directory arrays); whether the config exposes it is gated
    // in bm(). This makes every ConfigKind the same structural shape,
    // so a sweep over kinds runs on one reset-reused machine.
    bm_ = std::make_unique<bm::BmSystem>(engine_, cfg_.numCores, cfg_.bm,
                                         cfg_.wireless, rng_.fork(),
                                         cfg_.hasTone(), cfg_.numChips,
                                         cfg_.bridge);
}

Machine::~Machine()
{
    // Frames of live threads/transactions reference the subsystems
    // (mesh links, BM channels) through their local RAII guards;
    // destroy them while every subsystem is still alive. ~Engine would
    // otherwise do this after mesh_/mem_/bm_ are gone.
    engine_.destroyLiveRoots();
}

void
Machine::reset()
{
    reset(cfg_);
}

void
Machine::reset(const MachineConfig &cfg)
{
    WISYNC_FATAL_IF(!cfg.compatibleShape(cfg_),
                    "Machine::reset requires a shape-compatible config "
                    "(same kind/cores/cache/BM geometry)");
    requireValid(cfg);
    cfg_ = cfg;
    // Engine first: destroys live thread/transaction frames (whose
    // teardown may touch subsystem mutexes) and drops every pending
    // event, so the subsystem resets below never orphan a waiter.
    engine_.reset();
    // Mirror the constructor's RNG draw order exactly: seed the
    // machine stream, then hand the BM system the first fork.
    rng_.reseed(cfg_.seed);
    memory_.clear();
    mesh_->reset(cfg_.mesh);
    mem_->reset(cfg_.mem);
    bm_->reset(cfg_.bm, cfg_.wireless, rng_.fork(), cfg_.hasTone(),
               cfg_.numChips, cfg_.bridge);
    threads_.clear();
    liveThreads_ = 0;
    nextMem_ = kMemBase;
    nextBm_ = 0;
}

ThreadCtx &
Machine::spawnThread(sim::NodeId node, ThreadBody body, sim::Pid pid)
{
    WISYNC_FATAL_IF(node >= cfg_.numCores, "thread node out of range");
    auto ctx = std::make_unique<ThreadCtx>(
        *this, static_cast<sim::ThreadId>(threads_.size()), node, pid);
    ThreadCtx *raw = ctx.get();
    threads_.push_back(std::move(ctx));
    ++liveThreads_;
    coro::spawnFn(
        engine_, 0,
        [](ThreadBody b, ThreadCtx *c,
           std::uint32_t *live) -> coro::Task<void> {
            co_await b(*c);
            --*live;
        },
        std::move(body), raw, &liveThreads_);
    return *raw;
}

bool
Machine::run(sim::Cycle limit)
{
    engine_.run(limit);
    return liveThreads_ == 0;
}

sim::Addr
Machine::allocMem(std::uint64_t bytes, std::uint64_t align)
{
    nextMem_ = (nextMem_ + align - 1) & ~(align - 1);
    const sim::Addr out = nextMem_;
    nextMem_ += bytes;
    return out;
}

bool
Machine::allocBm(std::uint32_t words, sim::BmAddr &out)
{
    WISYNC_ASSERT(cfg_.hasWireless(), "allocBm on a machine without BM");
    if (nextBm_ + words > bm_->config().words())
        return false;
    out = nextBm_;
    nextBm_ += words;
    return true;
}

coro::DelayAwaiter
ThreadCtx::compute(std::uint64_t instructions)
{
    const auto width = machine_.config().issueWidth;
    return coro::delay(machine_.engine(), (instructions + width - 1) / width);
}

mem::MemSystem::Access<std::uint64_t>
ThreadCtx::load(sim::Addr addr)
{
    return machine_.mem().load(node_, addr);
}

mem::MemSystem::Access<void>
ThreadCtx::store(sim::Addr addr, std::uint64_t value)
{
    return machine_.mem().store(node_, addr, value);
}

mem::MemSystem::Access<std::uint64_t>
ThreadCtx::fetchAdd(sim::Addr addr, std::uint64_t d)
{
    return machine_.mem().fetchAdd(node_, addr, d);
}

mem::MemSystem::Access<std::uint64_t>
ThreadCtx::swap(sim::Addr addr, std::uint64_t v)
{
    return machine_.mem().swap(node_, addr, v);
}

mem::MemSystem::Access<mem::CasResult>
ThreadCtx::cas(sim::Addr addr, std::uint64_t expected, std::uint64_t desired)
{
    return machine_.mem().cas(node_, addr, expected, desired);
}

coro::Task<std::uint64_t>
ThreadCtx::spinUntil(sim::Addr addr, std::uint64_t want)
{
    return machine_.mem().spinUntil(node_, addr, want);
}

coro::Task<std::uint64_t>
ThreadCtx::spinWhile(sim::Addr addr, std::uint64_t value)
{
    return machine_.mem().spinWhile(node_, addr, value);
}

bm::BmSystem::Load
ThreadCtx::bmLoad(sim::BmAddr addr)
{
    return machine_.bm()->load(node_, pid_, addr);
}

coro::Task<void>
ThreadCtx::bmStore(sim::BmAddr addr, std::uint64_t value)
{
    return machine_.bm()->store(node_, pid_, addr, value);
}

coro::Task<std::uint64_t>
ThreadCtx::bmFetchAdd(sim::BmAddr addr, std::uint64_t d)
{
    return machine_.bm()->rmwRetry(node_, pid_, addr, bm::RmwOp::FetchAdd,
                                   d);
}

coro::Task<std::uint64_t>
ThreadCtx::bmTestAndSet(sim::BmAddr addr)
{
    return machine_.bm()->rmwRetry(node_, pid_, addr,
                                   bm::RmwOp::TestAndSet);
}

coro::Task<bm::RmwResult>
ThreadCtx::bmCas(sim::BmAddr addr, std::uint64_t expected,
                 std::uint64_t desired)
{
    return machine_.bm()->rmw(node_, pid_, addr, bm::RmwOp::Cas, expected,
                              desired);
}

bm::BmSystem::BulkLoad
ThreadCtx::bmBulkLoad(sim::BmAddr addr)
{
    return machine_.bm()->bulkLoad(node_, pid_, addr);
}

coro::Task<void>
ThreadCtx::bmBulkStore(sim::BmAddr addr, std::array<std::uint64_t, 4> values)
{
    return machine_.bm()->bulkStore(node_, pid_, addr, values);
}

coro::Task<std::uint64_t>
ThreadCtx::bmSpinUntil(sim::BmAddr addr, std::uint64_t want)
{
    return machine_.bm()->spinUntil(node_, pid_, addr, want);
}

coro::Task<std::uint64_t>
ThreadCtx::bmSpinWhile(sim::BmAddr addr, std::uint64_t value)
{
    return machine_.bm()->spinWhile(node_, pid_, addr, value);
}

coro::Task<void>
ThreadCtx::toneStore(sim::BmAddr addr)
{
    return machine_.bm()->toneStore(node_, pid_, addr);
}

coro::Task<void>
ThreadCtx::preempt(sim::Cycle cycles, sim::Cycle switch_cost)
{
    // The core runs something else; our BM replica keeps receiving
    // broadcasts, and the caches stay coherent, so nothing else to do.
    co_await coro::delay(machine_.engine(), cycles + switch_cost);
}

coro::Task<void>
ThreadCtx::migrate(sim::NodeId new_node, sim::Cycle migrate_cost)
{
    WISYNC_FATAL_IF(new_node >= machine_.config().numCores,
                    "migration target out of range");
    if (machine_.bm() && machine_.bm()->anyToneArmedOn(node_)) {
        throw std::runtime_error(
            "cannot migrate: a tone barrier arms this node (§5.2)");
    }
    co_await coro::delay(machine_.engine(), migrate_cost);
    node_ = new_node;
}

bm::BmSystem::Load
ThreadCtx::toneLoad(sim::BmAddr addr)
{
    return machine_.bm()->load(node_, pid_, addr);
}

} // namespace wisync::core
