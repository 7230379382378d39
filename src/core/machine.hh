/**
 * @file
 * The Machine facade: one simulated WiSync (or baseline) chip.
 *
 * Owns the engine and every substrate, wires them per MachineConfig,
 * and manages simulated software threads (one per core by default;
 * the model follows Table 1's 1 GHz, 2-issue cores by charging
 * ceil(instructions / issueWidth) cycles for compute).
 */

#ifndef WISYNC_CORE_MACHINE_HH
#define WISYNC_CORE_MACHINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bm/bm_system.hh"
#include "core/machine_config.hh"
#include "coro/primitives.hh"
#include "coro/task.hh"
#include "mem/mem_system.hh"
#include "noc/mesh.hh"
#include "sim/engine.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace wisync::core {

class Machine;

/**
 * Per-thread execution context handed to workload bodies.
 *
 * Thin, allocation-free wrappers over the machine's subsystems plus
 * the compute-time model.
 */
class ThreadCtx
{
  public:
    ThreadCtx(Machine &machine, sim::ThreadId tid, sim::NodeId node,
              sim::Pid pid)
        : machine_(machine), tid_(tid), node_(node), pid_(pid)
    {}

    sim::ThreadId tid() const { return tid_; }
    sim::NodeId node() const { return node_; }
    sim::Pid pid() const { return pid_; }
    Machine &machine() { return machine_; }

    /** Execute @p instructions of straight-line code (a plain delay;
     *  frameless). */
    coro::DelayAwaiter compute(std::uint64_t instructions);

    // Regular (cacheable) memory ops. These forward the MemSystem
    // Access awaitables (frameless L1-hit fast path) unchanged; they
    // are awaited exactly like the Tasks they used to be.
    mem::MemSystem::Access<std::uint64_t> load(sim::Addr addr);
    mem::MemSystem::Access<void> store(sim::Addr addr,
                                       std::uint64_t value);
    mem::MemSystem::Access<std::uint64_t> fetchAdd(sim::Addr addr,
                                                   std::uint64_t d);
    mem::MemSystem::Access<std::uint64_t> swap(sim::Addr addr,
                                               std::uint64_t v);
    mem::MemSystem::Access<mem::CasResult> cas(sim::Addr addr,
                                               std::uint64_t expected,
                                               std::uint64_t desired);
    /** Spin until the word equals @p want (spinWhile: until it
     *  differs from @p value); returns the value seen. */
    coro::Task<std::uint64_t> spinUntil(sim::Addr addr, std::uint64_t want);
    coro::Task<std::uint64_t> spinWhile(sim::Addr addr, std::uint64_t value);

    // Broadcast-memory ops (WiSync configs only).
    bm::BmSystem::Load bmLoad(sim::BmAddr addr);
    coro::Task<void> bmStore(sim::BmAddr addr, std::uint64_t value);
    coro::Task<std::uint64_t> bmFetchAdd(sim::BmAddr addr, std::uint64_t d);
    coro::Task<std::uint64_t> bmTestAndSet(sim::BmAddr addr);
    coro::Task<bm::RmwResult> bmCas(sim::BmAddr addr,
                                    std::uint64_t expected,
                                    std::uint64_t desired);
    bm::BmSystem::BulkLoad bmBulkLoad(sim::BmAddr addr);
    coro::Task<void> bmBulkStore(sim::BmAddr addr,
                                 std::array<std::uint64_t, 4> values);
    coro::Task<std::uint64_t> bmSpinUntil(sim::BmAddr addr,
                                          std::uint64_t want);
    coro::Task<std::uint64_t> bmSpinWhile(sim::BmAddr addr,
                                          std::uint64_t value);
    coro::Task<void> toneStore(sim::BmAddr addr);
    /** tone_ld: a plain BM load of the barrier word (§4.2.2). */
    bm::BmSystem::Load toneLoad(sim::BmAddr addr);

    /**
     * Context switch: the thread is descheduled for @p cycles plus
     * the OS switch overhead. While preempted, broadcast updates keep
     * landing in every BM replica, so the thread resumes with current
     * state (§5.2).
     */
    coro::Task<void> preempt(sim::Cycle cycles,
                             sim::Cycle switch_cost = 200);

    /**
     * Migrate this thread to @p new_node (§5.2). Legal because BM
     * state is identical on every node and caches stay coherent; the
     * thread simply resumes on the new core after the migration cost
     * (two context switches). Refused (ProtectionFault-style
     * std::runtime_error) while any tone barrier arms the current
     * node, because the Armed bit is per-node hardware state that
     * cannot follow the thread.
     */
    coro::Task<void> migrate(sim::NodeId new_node,
                             sim::Cycle migrate_cost = 400);

  private:
    Machine &machine_;
    sim::ThreadId tid_;
    sim::NodeId node_;
    sim::Pid pid_;
};

/** One simulated chip. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);
    ~Machine(); // destroys live thread/transaction frames first

    /**
     * Return every subsystem to its post-construction state without
     * reallocating the subsystem graph, so one Machine can serve many
     * sweep points (construction is the wall-time bottleneck of tight
     * sweep loops).
     *
     * Contract: after reset() the machine is observationally identical
     * to a freshly constructed Machine(config()) — same RNG streams,
     * same event ordering, bit-identical stats and final memory/BM
     * contents for the same workload (locked in by
     * tests/test_machine_reset.cc). Legal at any point outside run():
     * in-flight threads and hardware transactions are destroyed
     * through the engine's detached-root registry.
     *
     * The overload taking a config may retime the machine (latencies,
     * seed, issue width, MAC backoff, multicast mode) but must keep
     * the structural shape — cfg.compatibleShape(config()) — since
     * caches, BM arrays and the mesh are not reallocated.
     */
    void reset();
    void reset(const MachineConfig &cfg);

    using ThreadBody = std::function<coro::Task<void>(ThreadCtx &)>;

    /**
     * Create a thread on @p node (PID @p pid) running @p body.
     * Threads spawned before run() start at cycle 0.
     */
    ThreadCtx &spawnThread(sim::NodeId node, ThreadBody body,
                           sim::Pid pid = 1);

    /**
     * Run until every spawned thread finishes (or @p limit).
     * @return true if all threads completed.
     */
    bool run(sim::Cycle limit = sim::kCycleMax);

    std::uint32_t liveThreads() const { return liveThreads_; }

    // Subsystem access.
    sim::Engine &engine() { return engine_; }
    noc::Mesh &mesh() { return *mesh_; }
    mem::Memory &memory() { return memory_; }
    mem::MemSystem &mem() { return *mem_; }

    /**
     * The Broadcast Memory system, or nullptr on wired configs. The
     * substrate is physically present on every machine (a structural
     * invariant that lets reset() move a machine between kinds);
     * whether the config exposes it is this gate.
     */
    bm::BmSystem *
    bm()
    {
        return cfg_.hasWireless() ? bm_.get() : nullptr;
    }
    const MachineConfig &config() const { return cfg_; }
    sim::Rng &rng() { return rng_; }

    /** Simple bump allocator for workload data in regular memory. */
    sim::Addr allocMem(std::uint64_t bytes, std::uint64_t align = 64);

    /**
     * Bump allocator over BM words; returns true and the address when
     * it fits, false when the BM is exhausted (caller falls back to
     * regular memory, as dedup/fluidanimate do in §6).
     */
    bool allocBm(std::uint32_t words, sim::BmAddr &out);

  private:
    /** Base of the workload bump allocator in regular memory. */
    static constexpr sim::Addr kMemBase = 0x1000'0000;

    MachineConfig cfg_;
    sim::Engine engine_;
    sim::Rng rng_;
    mem::Memory memory_;
    std::unique_ptr<noc::Mesh> mesh_;
    std::unique_ptr<mem::MemSystem> mem_;
    std::unique_ptr<bm::BmSystem> bm_;
    std::vector<std::unique_ptr<ThreadCtx>> threads_;
    std::uint32_t liveThreads_ = 0;
    sim::Addr nextMem_ = kMemBase;
    sim::BmAddr nextBm_ = 0;
};

} // namespace wisync::core

#endif // WISYNC_CORE_MACHINE_HH
