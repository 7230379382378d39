/**
 * @file
 * The persistent sweep daemon: the serve loop behind
 * `wisync_sweepd --serve`, as a library so tests can drive it over
 * string streams.
 *
 * Protocol: one JSON request per input line, one JSON response per
 * output line, in order. The daemon owns a single SweepService, so
 * the ResultCache warms across requests — the whole point of staying
 * resident. Empty lines are ignored (keepalive-friendly).
 *
 * Fault containment (the robustness contract, fuzzed by
 * FuzzFaultInjection):
 *
 *  - A malformed or invalid request answers {"error":{...}} on its
 *    line and the loop continues — a bad request never kills the
 *    daemon, and never perturbs the results of any other line.
 *  - Oversized lines are rejected *before* parsing: the reader stops
 *    buffering at maxRequestBytes and drains the rest of the line, so
 *    a hostile multi-gigabyte line costs bounded memory.
 *  - With a cache file, every inserted result is appended + flushed
 *    immediately (CacheStore::Appender through the cache's spill
 *    hook): kill -9 mid-batch loses at most the record being written,
 *    and a restart salvages everything before it.
 *  - Fingerprint collisions (the cache header calls a nonzero count
 *    newsworthy) are reported once per batch through the warning
 *    sink (stderr by default) on top of the response's cache block.
 */

#ifndef WISYNC_SERVICE_DAEMON_HH
#define WISYNC_SERVICE_DAEMON_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>

#include "service/cache_store.hh"
#include "service/result_cache.hh"
#include "service/sweep_service.hh"

namespace wisync::service {

/** Knobs shared by serve mode and the one-shot CLI path. */
struct DaemonOptions
{
    unsigned threads = 0; // 0 = ParallelSweep's environment default
    std::size_t cacheCapacity = 256;
    /** Reject request lines longer than this before parsing them. */
    std::size_t maxRequestBytes = 1u << 20;
    /** Durable cache spill; empty disables persistence. */
    std::string cacheFile;
    unsigned shard = 0;
    unsigned numShards = 1;
    /** Test seam: see ResultCache::Hasher. */
    ResultCache::Hasher hasherOverride;
};

/** See the file comment. */
class Daemon
{
  public:
    explicit Daemon(DaemonOptions opt);

    /**
     * Bring up persistence (no-op without a cache file): salvage-load
     * the file, rewrite it compacted (atomically — this is also what
     * heals a corrupt tail), then attach the streaming appender. The
     * returned stats say what the salvage recovered.
     */
    CacheStore::LoadStats start(std::string *error = nullptr);

    /**
     * Answer one request text (either a serve-loop line or a whole
     * one-shot input). Never throws: every failure becomes an
     * {"error":{...}} response. @p ok_out, when given, reports
     * whether the request was served (the one-shot exit code).
     */
    std::string handleRequest(const std::string &text,
                              bool *ok_out = nullptr);

    /**
     * The persistent loop: read lines from @p in until EOF, write one
     * response line (flushed) per nonempty input line.
     * @return the number of responses written.
     */
    std::size_t serve(std::istream &in, std::ostream &out);

    SweepService &service() { return svc_; }
    const DaemonOptions &options() const { return opt_; }

    /** Redirect warnings (stderr by default; tests capture them). */
    void
    setWarningSink(std::function<void(const std::string &)> sink)
    {
        warn_ = std::move(sink);
    }

  private:
    void warnIfCollisions();

    DaemonOptions opt_;
    SweepService svc_;
    CacheStore::Appender appender_;
    std::uint64_t reportedCollisions_ = 0;
    std::function<void(const std::string &)> warn_;
};

/** {"error":{...}} JSON for @p e (shared with the sweepd CLI). */
std::string errorResponseJson(const ParseError &e);

} // namespace wisync::service

#endif // WISYNC_SERVICE_DAEMON_HH
