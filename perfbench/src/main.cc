/**
 * @file
 * perfbench_driver — the benchmark's measuring process.
 *
 *   perfbench_driver --workload paper-apps|wireless-sync|daemon-mixed
 *                    --seed N --seconds S --trace 0|1
 *                    --out-dir DIR
 *
 * daemon-mixed spawns the wisync_sweepd built with the driver, whose
 * path is compiled in (PERFBENCH_SWEEPD_PATH) and printed as a note.
 *
 * Prints notes, the result and count digests, one line per metric and
 * a final JSON line {"correct", "attempted", "failed", "metrics"}; see
 * perfbench/NOTES.md. Exit 0 iff every output checked out; 2 on bad
 * arguments or a benchmark defect.
 */

#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "report.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "paper-apps|wireless-sync|daemon-mixed --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR\n");
    return 2;
}

bool
parseUnsigned(const char *text, unsigned long long &out)
{
    char *end = nullptr;
    out = std::strtoull(text, &end, 10);
    return end != text && *end == '\0' && text[0] != '-';
}

} // namespace

int
main(int argc, char **argv)
{
    // A daemon that dies mid-pass must surface as a failed write, not
    // kill the client.
    signal(SIGPIPE, SIG_IGN);

    Args args;
    args.sweepd = PERFBENCH_SWEEPD_PATH;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        unsigned long long n = 0;
        if (arg == "--workload") {
            const auto w = parseWorkloadName(value);
            if (!w)
                return usage();
            args.workload = *w;
            have_workload = true;
        } else if (arg == "--seed" && parseUnsigned(value, n)) {
            args.seed = n;
        } else if (arg == "--seconds" && parseUnsigned(value, n) && n > 0 &&
                   n <= 3600) {
            args.seconds = static_cast<unsigned>(n);
        } else if (arg == "--trace" && parseUnsigned(value, n) && n <= 1) {
            args.trace = n == 1;
        } else if (arg == "--out-dir") {
            args.outDir = value;
        } else {
            return usage();
        }
    }
    if (!have_workload || args.outDir.empty())
        return usage();
    // paper-apps runs the parallel harness on up to four workers; the
    // other two run one: their timing is steadier, and only one worker
    // makes the daemon's LRU order, hence its answers, deterministic.
    args.threads =
        args.workload == Workload::PaperApps
            ? std::clamp(std::thread::hardware_concurrency(), 1u, 4u)
            : 1u;

    try {
        std::filesystem::create_directories(args.outDir);
        const Report report = args.workload == Workload::DaemonMixed
                                  ? runDaemonWorkload(args)
                                  : runSweepWorkload(args);
        return printReport(report, args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    }
}
