/**
 * @file
 * wisync_sweepd — the sweep service as a process.
 *
 * One-shot mode (default): reads one JSON sweep request (stdin or
 * --input), answers it through SweepService (dedupe + result cache +
 * ParallelSweep) and writes one JSON response (stdout or --output;
 * --output writes via temp file + atomic rename, so a killed process
 * never leaves a truncated response behind).
 *
 * Daemon mode (--serve): a persistent loop — one JSON request per
 * input line, one JSON response per output line — sharing a single
 * SweepService/ResultCache across requests. A malformed request
 * answers {"error":{...}} on its line and the loop continues; lines
 * longer than --max-request-bytes are rejected before parsing. See
 * src/service/daemon.hh for the containment contract.
 *
 * --cache-file FILE makes the result cache durable: salvage-loaded at
 * startup (corrupt/truncated records are counted and dropped, the
 * valid prefix survives), compacted, then streamed record-by-record
 * as points complete — so a kill -9 mid-batch loses at most one
 * record and a restarted daemon answers the finished points warm.
 *
 * --shard I/K makes the process simulate only its slice of the grid
 * while still reporting results under *global* point indices, so a
 * shell loop can run K daemons on K hosts and merge their "results"
 * arrays by index into exactly the serial output:
 *
 *   for i in 0 1 2 3; do
 *       wisync_sweepd --shard $i/4 < request.json > part$i.json &
 *   done; wait   # then concatenate the results arrays, sort by index
 *
 * The slice is ShardPlanner::planByCost's cost-balanced one (the
 * strided split i mod K on a uniform-cost grid).
 *
 * Request schema: see src/service/config_codec.hh. Response:
 *
 *   {"points": N, "shard": {"index": I, "shards": K},
 *    "stats": {"simulated":.., "cacheHits":.., "errors":..},
 *    "cache": {"hits":.., "misses":.., "insertions":..,
 *              "evictions":.., "collisions":..},
 *    "results": [{"index":.., "fingerprint":.., "ok":..,
 *                 "cacheHit":.., "result":{...} | "error":".."}]}
 *
 * A malformed request produces {"error": {...}} on the output stream
 * and (in one-shot mode) exit code 1; the error object names the
 * offending field path and point index (ConfigCodec's strictness
 * contract).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/parallel_sweep.hh"
#include "service/cache_store.hh"
#include "service/config_codec.hh"
#include "service/daemon.hh"
#include "service/shard_planner.hh"
#include "service/sweep_service.hh"
#include "workloads/kernel_result.hh"

namespace {

using namespace wisync;
using namespace wisync::service;

struct Options
{
    std::string input;  // empty = stdin
    std::string output; // empty = stdout
    bool serve = false;
    DaemonOptions daemon;
    bool selfTest = false;
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--input FILE] [--output FILE] [--shard I/K]\n"
        "          [--threads N] [--cache-capacity N] [--cache-file FILE]\n"
        "          [--serve] [--max-request-bytes N] [--self-test]\n"
        "Reads a JSON sweep request, writes a JSON response.\n"
        "--serve loops: one request per input line, one response per\n"
        "output line; bad lines answer {\"error\":...} and the loop\n"
        "continues. --cache-file makes the result cache durable\n"
        "(salvage-loaded at startup, streamed as points complete).\n"
        "--shard I/K simulates only shard I of K (results keep global\n"
        "point indices so shard outputs merge by index).\n",
        argv0);
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--input") {
            const char *v = value();
            if (!v)
                return false;
            opt.input = v;
        } else if (arg == "--output") {
            const char *v = value();
            if (!v)
                return false;
            opt.output = v;
        } else if (arg == "--shard") {
            const char *v = value();
            unsigned i_part = 0, k_part = 0;
            if (!v || std::sscanf(v, "%u/%u", &i_part, &k_part) != 2 ||
                k_part == 0 || i_part >= k_part) {
                std::fprintf(stderr,
                             "--shard wants I/K with I < K, got '%s'\n",
                             v ? v : "");
                return false;
            }
            opt.daemon.shard = i_part;
            opt.daemon.numShards = k_part;
        } else if (arg == "--threads") {
            const char *v = value();
            if (!v || std::sscanf(v, "%u", &opt.daemon.threads) != 1 ||
                opt.daemon.threads == 0) {
                std::fprintf(stderr, "--threads wants a count >= 1\n");
                return false;
            }
        } else if (arg == "--cache-capacity") {
            const char *v = value();
            unsigned long long cap = 0;
            if (!v || std::sscanf(v, "%llu", &cap) != 1) {
                std::fprintf(stderr,
                             "--cache-capacity wants a count\n");
                return false;
            }
            opt.daemon.cacheCapacity = static_cast<std::size_t>(cap);
        } else if (arg == "--cache-file") {
            const char *v = value();
            if (!v)
                return false;
            opt.daemon.cacheFile = v;
        } else if (arg == "--max-request-bytes") {
            const char *v = value();
            unsigned long long n = 0;
            if (!v || std::sscanf(v, "%llu", &n) != 1 || n == 0) {
                std::fprintf(stderr,
                             "--max-request-bytes wants a count >= 1\n");
                return false;
            }
            opt.daemon.maxRequestBytes = static_cast<std::size_t>(n);
        } else if (arg == "--serve") {
            opt.serve = true;
        } else if (arg == "--self-test") {
            opt.selfTest = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return false;
        }
    }
    return true;
}

bool
writeOut(const Options &opt, const std::string &text)
{
    if (opt.output.empty()) {
        std::cout << text << "\n";
        return bool(std::cout);
    }
    // Atomic: a reader polling the output path (or a kill mid-write)
    // sees either nothing or the whole response, never a prefix.
    std::string error;
    if (!writeFileAtomic(opt.output, text + "\n", &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return false;
    }
    return true;
}

void
reportCacheLoad(const Daemon &daemon,
                const CacheStore::LoadStats &stats)
{
    if (daemon.options().cacheFile.empty())
        return;
    std::fprintf(stderr,
                 "wisync_sweepd: cache-file '%s': %zu records loaded, "
                 "%zu discarded%s\n",
                 daemon.options().cacheFile.c_str(), stats.loaded,
                 stats.discarded,
                 stats.versionMismatch ? " (format version mismatch)"
                                       : "");
}

/**
 * Built-in smoke batch for ctest: a duplicate-heavy request run
 * through parse -> shard(2) -> merge must be bit-identical to a
 * serial uncached run, with cache hits accounting for every
 * duplicate a shard sees. Then the same request drives the serve loop
 * and a cache-file round trip, which must answer warm and identical.
 */
int
selfTest()
{
    const std::string request_json = R"({"points": [
        {"config": {"kind": "WiSync", "cores": 16},
         "workload": {"kind": "tightloop", "iterations": 40}},
        {"config": {"kind": "Baseline", "cores": 16},
         "workload": {"kind": "tightloop", "iterations": 40}},
        {"config": {"kind": "WiSync", "cores": 16},
         "workload": {"kind": "tightloop", "iterations": 40}},
        {"config": {"kind": "WiSync", "cores": 16, "wireless":
            {"mac": "Token"}},
         "workload": {"kind": "cas", "kernel": "add",
                      "duration": 3000}},
        {"config": {"kind": "WiSync", "cores": 16},
         "workload": {"kind": "tightloop", "iterations": 40}}
    ]})";

    const SweepRequest request = ConfigCodec::parseRequest(request_json);
    const std::size_t n = request.points.size();

    // Reference: serial, cache disabled.
    SweepService reference(0);
    const auto expect = reference.runBatch(request, 1);

    // Shard 2 ways, merge by index, compare bits.
    std::vector<ServiceOutcome> merged(n);
    std::size_t cache_hits = 0;
    for (unsigned s = 0; s < 2; ++s) {
        SweepService svc(64);
        const auto indices = ShardPlanner::planByCost(request, s, 2);
        const auto part =
            svc.runBatch(ShardPlanner::subRequest(request, indices), 2);
        ShardPlanner::mergeByIndex(merged, indices, part);
        cache_hits += svc.lastBatch().cacheHits;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (!merged[i].ok || !expect[i].ok ||
            !workloads::bitIdentical(merged[i].result,
                                     expect[i].result)) {
            std::fprintf(stderr, "self-test: point %zu diverged\n", i);
            return 1;
        }
    }
    // Points 0, 2 and 4 are identical. Costs (cores x length) are
    // 16 x 2040 for the tight loops and 16 x 3000 for the CAS point
    // 3, so LPT places 3, 0, 1, 2, 4 onto the least-loaded shard:
    // shard 0 gets {2, 3} and shard 1 gets {0, 1, 4}, whose cache
    // must answer point 4.
    if (cache_hits != 1) {
        std::fprintf(stderr,
                     "self-test: expected 1 cache hit, got %zu\n",
                     cache_hits);
        return 1;
    }

    // Serve loop: a bad line must answer an error and keep the loop
    // alive; the same request twice must answer the rerun warm.
    {
        DaemonOptions dopt;
        dopt.threads = 2;
        Daemon daemon(dopt);
        const std::string line =
            ConfigCodec::serializeRequest(request);
        std::istringstream in("this is not json\n" + line + "\n" +
                              line + "\n");
        std::ostringstream out;
        const std::size_t served = daemon.serve(in, out);
        if (served != 3 ||
            out.str().find("\"error\"") == std::string::npos) {
            std::fprintf(stderr,
                         "self-test: serve loop misbehaved "
                         "(%zu responses)\n",
                         served);
            return 1;
        }
        if (daemon.service().lastBatch().cacheHits != n) {
            std::fprintf(stderr,
                         "self-test: rerun not fully warm (%zu/%zu)\n",
                         daemon.service().lastBatch().cacheHits, n);
            return 1;
        }
    }
    std::printf("SWEEPD SELF-TEST PASS (%zu points, %zu hits)\n", n,
                cache_hits);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage(argv[0]);
    if (opt.selfTest)
        return selfTest();

    Daemon daemon(opt.daemon);
    std::string start_error;
    const CacheStore::LoadStats load = daemon.start(&start_error);
    reportCacheLoad(daemon, load);
    if (!start_error.empty())
        std::fprintf(stderr, "wisync_sweepd: cache-file: %s\n",
                     start_error.c_str());

    if (opt.serve) {
        std::istream *in = &std::cin;
        std::ifstream fin;
        if (!opt.input.empty()) {
            fin.open(opt.input);
            if (!fin) {
                std::fprintf(stderr, "cannot read %s\n",
                             opt.input.c_str());
                return 2;
            }
            in = &fin;
        }
        std::ostream *out = &std::cout;
        std::ofstream fout;
        if (!opt.output.empty()) {
            // Serve mode streams responses as they complete, so the
            // atomic-rename contract doesn't apply — it is about the
            // one-shot "whole response or nothing" file.
            fout.open(opt.output);
            if (!fout) {
                std::fprintf(stderr, "cannot write %s\n",
                             opt.output.c_str());
                return 2;
            }
            out = &fout;
        }
        daemon.serve(*in, *out);
        return 0;
    }

    std::string text;
    if (opt.input.empty()) {
        std::ostringstream ss;
        ss << std::cin.rdbuf();
        text = ss.str();
    } else {
        std::ifstream f(opt.input);
        if (!f) {
            std::fprintf(stderr, "cannot read %s\n", opt.input.c_str());
            return 2;
        }
        std::ostringstream ss;
        ss << f.rdbuf();
        text = ss.str();
    }

    bool ok = false;
    const std::string response = daemon.handleRequest(text, &ok);
    if (!writeOut(opt, response))
        return 2;
    return ok ? 0 : 1;
}
