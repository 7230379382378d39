/**
 * @file
 * Multi-chip scale-out: speedup vs chip count at a fixed machine size.
 *
 * The kilocore question the chip grid answers: with the total core
 * count held constant, does tiling the machine into more chips — each
 * with its own wireless domain under the FrequencyPlan, coupled by the
 * serialized ChipBridge — pay for the bridge latency it introduces?
 * Three workloads bracket the answer on both wireless kinds:
 *
 *  - BarrierStorm (TightLoop, zero-element array): nothing but
 *    machine-wide barriers. The hierarchical MultiChipBarrier's
 *    global phase rides the bridge every round — the worst case.
 *  - TightLoop (50-element array): the paper's Fig. 7 kernel, where
 *    per-chip channels absorb the broadcast storm between barriers.
 *  - CAS-LIFO: cross-chip RMW contention; stale-replica AFB aborts
 *    measure the coherence cost directly.
 *
 * The grid (kind x workload x chip count, 256 cores total) runs
 * through harness::ParallelSweep twice — serially and at the
 * environment's worker count — and must merge bit-identically,
 * bridge and stale-abort telemetry included. Two extra 64-core
 * WiSync barrier-storm points (1 chip vs 4) measure the intra- vs
 * inter-chip synchronization cost per barrier: the bridge's latency
 * must be visible (inter > intra), or the bridge model is vacuous.
 *
 * Reliability rows ride the same sweep: the 64-core storm again at 2
 * and 4 chips over a 20% lossy bridge (retry/give-up counters must
 * engage and the drop books must balance), a loss-free bridge with
 * odd reliability knobs that must stay bit-identical to the plain
 * 4-chip point, and a flat-vs-stepped per-channel loss profile pair
 * whose 8 dB slot step must visibly shift the run.
 *
 * The exit status gates identity, completion, >= 256 cores swept,
 * inter > intra > 0, frames actually crossing the bridge, bridge
 * retries engaging, balanced drop books, the ideal-bridge identity
 * and the profile sensitivity. ctest runs this binary in quick mode
 * and compares its stdout to bench/golden/bench_multichip.txt.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "harness/parallel_sweep.hh"
#include "harness/report.hh"
#include "workloads/cas_kernels.hh"
#include "workloads/tight_loop.hh"

using namespace wisync;

namespace {

struct Point
{
    core::ConfigKind kind;
    const char *workload;
    std::uint32_t chips;
};

} // namespace

int
main()
{
    const bool quick = harness::sweepMode() == harness::SweepMode::Quick;

    // The acceptance floor is a >= 256-core machine even in quick
    // mode; quick only trims the chip axis and the iteration counts.
    const std::uint32_t total_cores = 256;
    const std::vector<std::uint32_t> chip_counts =
        quick ? std::vector<std::uint32_t>{1, 4}
              : std::vector<std::uint32_t>{1, 2, 4};
    const std::vector<core::ConfigKind> kinds = {
        core::ConfigKind::WiSync, core::ConfigKind::WiSyncNoT};

    workloads::TightLoopParams storm;
    storm.iterations = quick ? 4 : 8;
    storm.arrayElems = 0;
    storm.runLimit = 20'000'000;
    workloads::TightLoopParams tight;
    tight.iterations = quick ? 4 : 8;
    tight.runLimit = 20'000'000;
    workloads::CasKernelParams cas;
    cas.criticalSectionInstr = 128;
    cas.duration = quick ? 20'000 : 60'000;

    harness::ParallelSweep sweep;
    std::vector<Point> grid;
    for (const auto kind : kinds) {
        for (const auto chips : chip_counts) {
            auto cfg = core::MachineConfig::make(kind, total_cores);
            cfg.numChips = chips;
            grid.push_back({kind, "BarrierStorm", chips});
            sweep.add(cfg, [storm](core::Machine &m) {
                return workloads::runTightLoopOn(m, storm);
            });
            grid.push_back({kind, "TightLoop", chips});
            sweep.add(cfg, [tight](core::Machine &m) {
                return workloads::runTightLoopOn(m, tight);
            });
            grid.push_back({kind, "CAS-LIFO", chips});
            sweep.add(cfg, [cas](core::Machine &m) {
                return workloads::runCasKernelOn(workloads::CasKernel::Lifo,
                                                 m, cas);
            });
        }
    }

    // Intra- vs inter-chip synchronization cost: the same 64-core
    // WiSync barrier storm, once on one die (tone barrier) and once
    // tiled over 4 chips (MultiChipBarrier's global phase crosses the
    // bridge every round). Appended to the same sweep so the identity
    // leg covers these points too.
    const std::size_t intra_idx = grid.size();
    for (const std::uint32_t chips : {1u, 4u}) {
        auto cfg = core::MachineConfig::make(core::ConfigKind::WiSync, 64);
        cfg.numChips = chips;
        grid.push_back({core::ConfigKind::WiSync, "SyncCost", chips});
        sweep.add(cfg, [storm](core::Machine &m) {
            return workloads::runTightLoopOn(m, storm);
        });
    }

    // Bridge loss at 2 and 4 chips: the same 64-core WiSync storm with
    // a 20% lossy bridge. Every global barrier phase rides the
    // retrying link, so the bridge reliability counters must engage
    // (bridge_retries gate) while the run still completes coherently.
    const std::size_t bridge_loss_idx = grid.size();
    for (const std::uint32_t chips : {2u, 4u}) {
        auto cfg = core::MachineConfig::make(core::ConfigKind::WiSync, 64);
        cfg.numChips = chips;
        cfg.bridge.lossPct = 20.0;
        grid.push_back({core::ConfigKind::WiSync, "BridgeLoss", chips});
        sweep.add(cfg, [storm](core::Machine &m) {
            return workloads::runTightLoopOn(m, storm);
        });
    }

    // Ideal-bridge identity twin: odd reliability knobs on a loss-free
    // bridge are dead state — the point must be bit-identical to the
    // 4-chip SyncCost cell (bridge_loss_identity gate).
    const std::size_t bridge_twin_idx = grid.size();
    {
        auto cfg = core::MachineConfig::make(core::ConfigKind::WiSync, 64);
        cfg.numChips = 4;
        cfg.bridge.ackTimeoutCycles = 17;
        cfg.bridge.maxRetries = 2;
        cfg.bridge.retryBackoffMaxExp = 1;
        grid.push_back({core::ConfigKind::WiSync, "BridgeTwin", 4});
        sweep.add(cfg, [storm](core::Machine &m) {
            return workloads::runTightLoopOn(m, storm);
        });
    }

    // Per-channel loss profiles: 32 cores tiled over 4 chips sharing
    // 2 spectrum slots at marginal transmit power, flat spectrum vs
    // an 8 dB per-slot step. The per-chip dies are small enough that
    // the stepped slot stays usable (lossy, not dead); the profile
    // moves real loss into the high slots, so the two points must
    // diverge (channel_profile_differs gate).
    const std::size_t profile_idx = grid.size();
    for (const double step : {0.0, 8.0}) {
        auto cfg = core::MachineConfig::make(core::ConfigKind::WiSync, 32);
        cfg.numChips = 4;
        cfg.wireless.spectrumSlots = 2;
        cfg.wireless.berFromSnr = true;
        cfg.wireless.txPowerDbm = 0.0;
        cfg.wireless.channelLossStepDb = step;
        grid.push_back({core::ConfigKind::WiSync,
                        step == 0.0 ? "ProfileFlat" : "ProfileStep", 4});
        sweep.add(cfg, [tight](core::Machine &m) {
            return workloads::runTightLoopOn(m, tight);
        });
    }

    const auto serial = sweep.run(1);
    const unsigned threads = harness::ParallelSweep::threads();
    const auto parallel = sweep.run(threads);
    bool identical = serial.size() == parallel.size();
    for (std::size_t i = 0; identical && i < serial.size(); ++i)
        identical = workloads::bitIdentical(serial[i], parallel[i]);

    bool all_completed = true;
    std::uint64_t bridge_frames = 0, bridge_drops = 0, bridge_retries = 0;
    bool bridge_books_balance = true;
    for (const auto &r : serial) {
        all_completed = all_completed && r.completed;
        bridge_frames += r.bridgeFrames;
        bridge_drops += r.bridgeDrops;
        bridge_retries += r.bridgeRetransmits;
        // Drop-accounting invariant, point by point: every corrupted
        // serialization times out exactly once and is either
        // retransmitted or given up on.
        bridge_books_balance =
            bridge_books_balance && r.bridgeDrops == r.bridgeAckTimeouts &&
            r.bridgeDrops == r.bridgeRetransmits + r.bridgeGiveups;
    }

    const double intra_per_barrier =
        static_cast<double>(serial[intra_idx].cycles) / storm.iterations;
    const double inter_per_barrier =
        static_cast<double>(serial[intra_idx + 1].cycles) /
        storm.iterations;

    const bool bridge_loss_identity = workloads::bitIdentical(
        serial[bridge_twin_idx], serial[intra_idx + 1]);
    const bool channel_profile_differs =
        serial[profile_idx].completed && serial[profile_idx + 1].completed &&
        !workloads::bitIdentical(serial[profile_idx],
                                 serial[profile_idx + 1]);

    // Gates without a verdict line in the table output report a
    // failure on stderr so stdout stays golden.
    bool ok = identical && bridge_books_balance && bridge_loss_identity &&
              channel_profile_differs;
    auto gate = [&ok](bool holds, const char *what) {
        if (!holds)
            std::fprintf(stderr, "GATE FAILED: %s\n", what);
        ok = ok && holds;
    };
    gate(all_completed, "every point completes");
    gate(total_cores >= 256, "total cores >= 256");
    gate(inter_per_barrier > intra_per_barrier && intra_per_barrier > 0,
         "inter-chip > intra-chip > 0 cycles per barrier");
    gate(bridge_frames >= 1, "bridge frames >= 1");
    gate(bridge_drops >= 1, "bridge drops >= 1");
    gate(bridge_retries >= 1, "bridge retries >= 1");

    harness::TextTable tab("Multi-chip scale-out (256 cores total, "
                           "chips x workload)");
    tab.header({"Config", "Workload", "Chips", "Cycles", "Speedup",
                "Bridge frames", "Stale aborts"});
    for (std::size_t i = 0; i < intra_idx; ++i) {
        const auto &r = serial[i];
        // Speedup vs the 1-chip tiling of the same (kind, workload):
        // chip_counts always leads with 1, so that point is the first
        // matching entry in the grid.
        std::size_t base = 0;
        while (grid[base].kind != grid[i].kind ||
               std::strcmp(grid[base].workload, grid[i].workload) != 0)
            ++base;
        const double speedup =
            r.cycles == 0 ? 0.0
                          : static_cast<double>(serial[base].cycles) /
                                static_cast<double>(r.cycles);
        tab.row({toString(grid[i].kind), grid[i].workload,
                 std::to_string(grid[i].chips),
                 r.completed ? std::to_string(r.cycles)
                             : std::string("run limit"),
                 harness::fmt(speedup, 2) + "x",
                 std::to_string(r.bridgeFrames),
                 std::to_string(r.staleRmwAborts)});
    }
    tab.print(std::cout);
    std::printf("sync cost per barrier (64-core WiSync storm): "
                "%.1f cycles on one die, %.1f across 4 chips\n",
                intra_per_barrier, inter_per_barrier);

    harness::TextTable rel("Bridge loss and channel profiles");
    rel.header({"Point", "Chips", "Cycles", "Bridge drops", "Retries",
                "Give-ups", "Wireless drops"});
    for (std::size_t i = bridge_loss_idx; i < grid.size(); ++i) {
        const auto &r = serial[i];
        rel.row({grid[i].workload, std::to_string(grid[i].chips),
                 r.completed ? std::to_string(r.cycles)
                             : std::string("run limit"),
                 std::to_string(r.bridgeDrops),
                 std::to_string(r.bridgeRetransmits),
                 std::to_string(r.bridgeGiveups),
                 std::to_string(r.wirelessDrops)});
    }
    rel.print(std::cout);
    std::cout << (bridge_books_balance
                      ? "bridge drop accounting balances\n"
                      : "ACCOUNTING VIOLATION: bridge drops != "
                        "timeouts / retries + give-ups\n");
    std::cout << (bridge_loss_identity
                      ? "ideal-bridge reliability knobs are inert\n"
                      : "IDENTITY VIOLATION: loss-free bridge knobs "
                        "perturbed the run\n");
    std::cout << (channel_profile_differs
                      ? "per-channel loss profile shifts the run\n"
                      : "SENSITIVITY VIOLATION: 8 dB profile step "
                        "was invisible\n");
    std::cout << (identical ? "serial/parallel results identical\n"
                            : "DETERMINISM VIOLATION: serial and "
                              "parallel results differ\n");
    return ok ? 0 : 1;
}
