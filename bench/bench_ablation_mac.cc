/**
 * @file
 * Ablation of the MAC protocol (wireless/mac/): BRS vs token vs
 * fuzzy-token vs adaptive, across contention regimes.
 *
 * Two workloads bracket the protocol space on WiSyncNoT (every
 * synchronization op rides the Data channel, so the MAC is on the
 * critical path): the barrier-storm TightLoop — all cores broadcast
 * in bursts, random access thrashes — and the LIFO CAS kernel —
 * staggered RMW traffic where token rotation latency is pure
 * overhead. The grid (protocol x workload x core count) runs through
 * harness::ParallelSweep twice, serially and at the environment's
 * worker count, and the merged results — including the per-protocol
 * MAC telemetry — must be bit-identical. The exit status also gates
 * the deterministic MAC counters: token collisions must be exactly
 * zero, the token must actually rotate, and the adaptive controller
 * must actually switch.
 *
 * A second grid exercises the lossy-channel model: every protocol
 * runs the TightLoop storm at lossPct = 10 (plus an SNR-derived
 * point), serially and in parallel, and the exit status gains the
 * reliability gates — loss0_identical (a lossPct = 0 config with
 * non-default ack/retry knobs must be bit-identical to the ideal
 * grid: the reliability layer may not move a cycle until a packet is
 * actually lost) and all_delivered_or_reported (every lossy point
 * completes, and every drop is accounted for by a retransmission or
 * a typed give-up — no silent loss, no hang). Two bursty rows per
 * protocol extend the grid: a Gilbert–Elliott chain at the same 10%
 * mean loss as the i.i.d. row (whose cycle count must measurably
 * diverge — burst_vs_iid_differs — since equal average loss clusters
 * the retries differently) and a burst-off twin with every chain knob
 * moved off its default that must stay bit-identical to the ideal
 * grid (burst_identity_off). Both loss models must actually drop
 * packets (lossy_drops >= 1, bursty_drops >= 1).
 *
 * The exit status is the gate; ctest runs this binary in quick mode
 * and compares its stdout to bench/golden/bench_ablation_mac.txt.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "harness/parallel_sweep.hh"
#include "harness/report.hh"
#include "wireless/burst.hh"
#include "wireless/mac/mac_kind.hh"
#include "workloads/cas_kernels.hh"
#include "workloads/tight_loop.hh"

using namespace wisync;

namespace {

struct Point
{
    wireless::MacKind mac;
    const char *workload;
    std::uint32_t cores;
};

} // namespace

int
main()
{
    const bool quick = harness::sweepMode() == harness::SweepMode::Quick;

    const std::vector<wireless::MacKind> kinds = {
        wireless::MacKind::Brs, wireless::MacKind::Token,
        wireless::MacKind::FuzzyToken, wireless::MacKind::Adaptive};
    const std::vector<std::uint32_t> core_counts =
        quick ? std::vector<std::uint32_t>{16}
              : std::vector<std::uint32_t>{16, 64};

    workloads::TightLoopParams tight;
    tight.iterations = quick ? 6 : 12;
    tight.runLimit = 20'000'000;
    workloads::CasKernelParams cas;
    cas.criticalSectionInstr = 128;
    cas.duration = quick ? 40'000 : 120'000;

    harness::ParallelSweep sweep;
    std::vector<Point> grid;
    for (const auto mac : kinds) {
        for (const auto cores : core_counts) {
            auto cfg = core::MachineConfig::make(
                core::ConfigKind::WiSyncNoT, cores);
            cfg.wireless.macKind = mac;
            grid.push_back({mac, "TightLoop", cores});
            sweep.add(cfg, [tight](core::Machine &m) {
                return workloads::runTightLoopOn(m, tight);
            });
            grid.push_back({mac, "CAS-LIFO", cores});
            sweep.add(cfg, [cas](core::Machine &m) {
                return workloads::runCasKernelOn(workloads::CasKernel::Lifo,
                                                 m, cas);
            });
        }
    }

    // The determinism leg: serial vs the environment's worker count
    // must merge to bit-identical results, MAC telemetry included.
    const auto serial = sweep.run(1);
    const unsigned threads = harness::ParallelSweep::threads();
    const auto parallel = sweep.run(threads);
    bool identical = serial.size() == parallel.size();
    for (std::size_t i = 0; identical && i < serial.size(); ++i)
        identical = workloads::bitIdentical(serial[i], parallel[i]);

    // ---- Lossy-channel grid ---------------------------------------
    // Per protocol: the TightLoop storm at lossPct = 10, one
    // SNR-derived point (berFromSnr at a transmit power low enough to
    // leave the far links marginal), and a lossPct = 0 twin with
    // non-default ack/retry knobs that must be bit-identical to the
    // ideal grid's point — the reliability layer may not perturb a
    // run until a packet is actually lost.
    struct LossPoint
    {
        wireless::MacKind mac;
        const char *channel;
        /** Ideal-grid index this point must match (or SIZE_MAX). */
        std::size_t twin_of;
    };
    harness::ParallelSweep loss_sweep;
    std::vector<LossPoint> loss_grid;
    const std::uint32_t loss_cores = 16;
    for (const auto mac : kinds) {
        // Index of the ideal (mac, TightLoop, 16) point in `grid`.
        std::size_t ideal = 0;
        while (grid[ideal].mac != mac ||
               std::strcmp(grid[ideal].workload, "TightLoop") != 0 ||
               grid[ideal].cores != loss_cores)
            ++ideal;

        auto lossy = core::MachineConfig::make(core::ConfigKind::WiSyncNoT,
                                               loss_cores);
        lossy.wireless.macKind = mac;
        lossy.wireless.lossPct = 10.0;
        loss_grid.push_back({mac, "loss=10%", SIZE_MAX});
        loss_sweep.add(lossy, [tight](core::Machine &m) {
            return workloads::runTightLoopOn(m, tight);
        });

        auto snr = core::MachineConfig::make(core::ConfigKind::WiSyncNoT,
                                             loss_cores);
        snr.wireless.macKind = mac;
        snr.wireless.berFromSnr = true;
        // 0 dBm leaves the corner transmitters' farthest links
        // marginal (broadcast PER up to ~9%) while central nodes stay
        // clean — the heterogeneous regime the SNR model is for.
        snr.wireless.txPowerDbm = 0.0;
        loss_grid.push_back({mac, "snr", SIZE_MAX});
        loss_sweep.add(snr, [tight](core::Machine &m) {
            return workloads::runTightLoopOn(m, tight);
        });

        auto twin = core::MachineConfig::make(core::ConfigKind::WiSyncNoT,
                                              loss_cores);
        twin.wireless.macKind = mac;
        twin.wireless.ackTimeoutCycles = 9;
        twin.wireless.maxRetries = 3;
        twin.wireless.retryBackoffMaxExp = 2;
        loss_grid.push_back({mac, "loss=0", ideal});
        loss_sweep.add(twin, [tight](core::Machine &m) {
            return workloads::runTightLoopOn(m, tight);
        });

        // Correlated loss at the same 10% mean: a Gilbert–Elliott
        // chain with 4-transmission mean bursts. Equal average loss,
        // different drop clustering — the retry cost must measurably
        // diverge from the i.i.d. row (gated below), or the burst
        // model is indistinguishable from the knob it replaces.
        auto bursty = core::MachineConfig::make(
            core::ConfigKind::WiSyncNoT, loss_cores);
        bursty.wireless.macKind = mac;
        bursty.wireless.burst =
            wireless::BurstParams::fromMean(10.0, 4.0);
        loss_grid.push_back({mac, "burst=10%/4", SIZE_MAX});
        loss_sweep.add(bursty, [tight](core::Machine &m) {
            return workloads::runTightLoopOn(m, tight);
        });

        // Burst-off twin: every burst knob moved off its default but
        // the enable gate closed — must be bit-identical to the ideal
        // grid's point (the chain is dead state until enabled).
        auto burst_off = core::MachineConfig::make(
            core::ConfigKind::WiSyncNoT, loss_cores);
        burst_off.wireless.macKind = mac;
        burst_off.wireless.burst.enabled = false;
        burst_off.wireless.burst.goodLossPct = 9.0;
        burst_off.wireless.burst.badLossPct = 80.0;
        burst_off.wireless.burst.pGoodToBad = 0.4;
        burst_off.wireless.burst.pBadToGood = 0.2;
        loss_grid.push_back({mac, "burst-off", ideal});
        loss_sweep.add(burst_off, [tight](core::Machine &m) {
            return workloads::runTightLoopOn(m, tight);
        });
    }
    const auto loss_serial = loss_sweep.run(1);
    const auto loss_parallel = loss_sweep.run(threads);
    for (std::size_t i = 0; identical && i < loss_serial.size(); ++i)
        identical =
            workloads::bitIdentical(loss_serial[i], loss_parallel[i]);

    bool loss0_identical = true;
    bool burst_identity_off = true;
    bool all_delivered_or_reported = true;
    bool burst_vs_iid_differs = false;
    std::uint64_t lossy_drops = 0, bursty_drops = 0;
    for (std::size_t i = 0; i < loss_grid.size(); ++i) {
        const auto &r = loss_serial[i];
        if (loss_grid[i].twin_of != SIZE_MAX) {
            const bool same =
                workloads::bitIdentical(r, serial[loss_grid[i].twin_of]);
            if (std::strcmp(loss_grid[i].channel, "burst-off") == 0)
                burst_identity_off = burst_identity_off && same;
            else
                loss0_identical = loss0_identical && same;
            continue;
        }
        // Lossy points (i.i.d., SNR-derived and bursty alike): the
        // kernel must terminate, and every drop must be answered by a
        // retransmission or a typed give-up.
        all_delivered_or_reported =
            all_delivered_or_reported && r.completed &&
            (r.wirelessDrops == 0 ||
             r.macRetransmits + r.macGiveups > 0) &&
            r.macAckTimeouts == r.macRetransmits + r.macGiveups;
        if (std::strcmp(loss_grid[i].channel, "burst=10%/4") == 0)
            bursty_drops += r.wirelessDrops;
        else
            lossy_drops += r.wirelessDrops;
    }
    // Equal-mean-loss comparison: for each protocol the bursty row and
    // the i.i.d. lossPct = 10 row average the same loss but cluster it
    // differently; at least one protocol must show a different cycle
    // count, or the chain is observationally dead weight. The per-mac
    // stride in loss_grid is 5 points (loss, snr, twin, burst, off).
    for (std::size_t m = 0; m < kinds.size(); ++m) {
        const auto &iid = loss_serial[m * 5];
        const auto &burst = loss_serial[m * 5 + 3];
        burst_vs_iid_differs =
            burst_vs_iid_differs || iid.cycles != burst.cycles;
    }

    bool all_completed = true;
    std::uint64_t token_collisions = 0, token_rotations = 0;
    std::uint64_t adaptive_switches = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &r = serial[i];
        all_completed = all_completed && r.completed;
        if (grid[i].mac == wireless::MacKind::Token) {
            token_collisions += r.collisions;
            token_rotations += r.macTokenRotations;
        } else if (grid[i].mac == wireless::MacKind::Adaptive) {
            adaptive_switches += r.macModeSwitches;
        }
    }

    // Counter gates that have no verdict line in the table output:
    // a failure is reported on stderr so stdout stays golden.
    bool ok = identical && all_completed && loss0_identical &&
              all_delivered_or_reported && burst_identity_off &&
              burst_vs_iid_differs;
    auto gate = [&ok](bool holds, const char *what) {
        if (!holds)
            std::fprintf(stderr, "GATE FAILED: %s\n", what);
        ok = ok && holds;
    };
    gate(token_collisions == 0, "token MAC collisions == 0");
    gate(token_rotations >= 1, "token rotations >= 1");
    gate(adaptive_switches >= 1, "adaptive mode switches >= 1");
    gate(lossy_drops >= 1, "lossy drops >= 1");
    gate(bursty_drops >= 1, "bursty drops >= 1");

    harness::TextTable tab("Ablation: MAC protocol x workload "
                           "(WiSyncNoT)");
    tab.header({"MAC", "Workload", "Cores", "Cycles", "Ops/kcycle",
                "Collisions", "Backoff cyc", "Token waits", "Rotations",
                "Switches"});
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &r = serial[i];
        tab.row({toString(grid[i].mac), grid[i].workload,
                 std::to_string(grid[i].cores),
                 r.completed ? std::to_string(r.cycles)
                             : std::string("run limit"),
                 harness::fmt(r.opsPerKiloCycle(), 2),
                 std::to_string(r.collisions),
                 std::to_string(r.macBackoffCycles),
                 std::to_string(r.macTokenWaits),
                 std::to_string(r.macTokenRotations),
                 std::to_string(r.macModeSwitches)});
    }
    tab.print(std::cout);
    std::cout << (identical ? "serial/parallel results identical\n"
                            : "DETERMINISM VIOLATION: serial and "
                              "parallel results differ\n");

    harness::TextTable loss_tab("Lossy channel: MAC protocol x channel "
                                "(WiSyncNoT TightLoop, 16 cores)");
    loss_tab.header({"MAC", "Channel", "Cycles", "Drops", "Timeouts",
                     "Rexmit", "Giveups"});
    for (std::size_t i = 0; i < loss_grid.size(); ++i) {
        const auto &r = loss_serial[i];
        loss_tab.row({toString(loss_grid[i].mac), loss_grid[i].channel,
                      r.completed ? std::to_string(r.cycles)
                                  : std::string("run limit"),
                      std::to_string(r.wirelessDrops),
                      std::to_string(r.macAckTimeouts),
                      std::to_string(r.macRetransmits),
                      std::to_string(r.macGiveups)});
    }
    loss_tab.print(std::cout);
    std::cout << (loss0_identical
                      ? "loss0 identical to ideal channel\n"
                      : "DETERMINISM VIOLATION: lossPct=0 differs from "
                        "the ideal channel\n");
    std::cout << (all_delivered_or_reported
                      ? "all lossy sends delivered or reported\n"
                      : "RELIABILITY VIOLATION: drops unaccounted for\n");
    std::cout << (burst_identity_off
                      ? "burst-off identical to ideal channel\n"
                      : "DETERMINISM VIOLATION: disabled burst chain "
                        "moved a simulated cycle\n");
    std::cout << (burst_vs_iid_differs
                      ? "equal-mean bursty loss diverges from i.i.d.\n"
                      : "MODEL VIOLATION: bursty and i.i.d. loss are "
                        "indistinguishable at equal mean\n");
    return ok ? 0 : 1;
}
