/**
 * @file
 * daemon-mixed: one client, one request outstanding (a closed loop),
 * driving `wisync_sweepd --serve --cache-file` started on a pre-seeded
 * cache file. Each pass spawns a fresh daemon on a fresh copy of that
 * file and plays the whole seeded stream, so every pass does the same
 * work and must answer byte-identically; pass 1's answers are checked
 * against an in-process runWorkload of every point.
 */

#include "workloads.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "service/cache_store.hh"
#include "service/json.hh"
#include "service/sweep_service.hh"

extern char **environ;

namespace perfbench {

using namespace wisync;

namespace {

/** How long one answer may take before the pass is abandoned, ms. */
constexpr int kReplyTimeoutMs = 60'000;

/** A `wisync_sweepd --serve` child with its stdin/stdout piped. */
class DaemonProcess
{
  public:
    DaemonProcess(const std::string &binary,
                  const std::vector<std::string> &args,
                  const std::string &stderr_path)
    {
        int in[2], out[2];
        if (pipe2(in, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe failed");
        if (pipe2(out, O_CLOEXEC) != 0) {
            ::close(in[0]);
            ::close(in[1]);
            throw std::runtime_error("pipe failed");
        }
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, in[0], 0);
        posix_spawn_file_actions_adddup2(&fa, out[1], 1);
        posix_spawn_file_actions_addopen(&fa, 2, stderr_path.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(binary.c_str()));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(in[0]);
        ::close(out[1]);
        in_ = in[1];
        out_ = out[0];
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot start " + binary);
        }
    }

    ~DaemonProcess()
    {
        closeInput();
        if (out_ >= 0)
            ::close(out_);
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            ::waitpid(pid_, &status, 0);
        }
    }

    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    /** Write @p line plus a newline; false if the daemon is gone. */
    bool
    send(const std::string &line)
    {
        const std::string text = line + "\n";
        std::size_t done = 0;
        while (done < text.size()) {
            const ssize_t n = ::write(in_, text.data() + done,
                                      text.size() - done);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            done += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Read one response line; false on EOF, error or timeout. */
    bool
    receive(std::string &line)
    {
        for (;;) {
            if (const auto nl = buf_.find('\n'); nl != std::string::npos) {
                line.assign(buf_, 0, nl);
                buf_.erase(0, nl + 1);
                return true;
            }
            pollfd p{out_, POLLIN, 0};
            const int ready = ::poll(&p, 1, kReplyTimeoutMs);
            if (ready < 0 && errno == EINTR)
                continue;
            if (ready <= 0)
                return false;
            char chunk[65536];
            const ssize_t n = ::read(out_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /**
     * Close stdin (EOF ends the serve loop) and reap the child, whose
     * peak resident set lands in @p peak_rss_mb.
     * @return its exit code, or -1 if it did not exit cleanly.
     */
    int
    finish(double &peak_rss_mb)
    {
        closeInput();
        int status = 0;
        rusage usage{};
        const pid_t pid = pid_;
        pid_ = -1;
        if (::wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status))
            return -1;
        peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
        return WEXITSTATUS(status);
    }

  private:
    void
    closeInput()
    {
        if (in_ >= 0) {
            ::close(in_);
            in_ = -1;
        }
    }

    pid_t pid_ = -1;
    int in_ = -1;
    int out_ = -1;
    std::string buf_;
};

/** The stream resolved to distinct request points. */
struct ParsedStream
{
    std::vector<service::RequestPoint> distinct;
    std::vector<std::size_t> archive;
    std::vector<std::size_t> hot;
    /** Per line: indices into distinct (empty for Bad lines). */
    std::vector<std::vector<std::size_t>> linePoints;
};

ParsedStream
parseStream(const DaemonInput &input)
{
    ParsedStream s;
    std::unordered_map<std::uint64_t, std::size_t> by_fp;
    auto intern = [&](const service::RequestPoint &p) {
        const auto [it, fresh] =
            by_fp.try_emplace(p.fingerprint(), s.distinct.size());
        if (fresh)
            s.distinct.push_back(p);
        else if (!(s.distinct[it->second] == p))
            throw std::runtime_error("fingerprint collision in stream");
        return it->second;
    };
    auto single = [&](const std::string &point) {
        return intern(service::ConfigCodec::parseRequest(
                          "{\"points\":[" + point + "]}")
                          .points.at(0));
    };
    for (const std::string &p : input.archive)
        s.archive.push_back(single(p));
    for (const std::string &p : input.hot)
        s.hot.push_back(single(p));
    for (const DaemonLine &line : input.lines) {
        std::vector<std::size_t> points;
        if (line.kind != DaemonLine::Kind::Bad) {
            for (const auto &p :
                 service::ConfigCodec::parseRequest(line.text).points)
                points.push_back(intern(p));
        }
        s.linePoints.push_back(std::move(points));
    }
    return s;
}

/**
 * Does @p response answer @p line (its @p points) exactly with @p ref's
 * results? A Hit line must be answered from cache and a Miss line must
 * not (the generator keeps popular points resident). Entries answered
 * from cache are added to @p hits.
 */
bool
responseCorrect(const std::string &response, const DaemonLine &line,
                const std::vector<std::size_t> &points,
                const ParsedStream &stream, const PassResult &ref,
                std::size_t &hits)
{
    using Kind = DaemonLine::Kind;
    if (line.kind == Kind::Bad)
        return response.rfind("{\"error\":{", 0) == 0;
    std::size_t at = response.find("\"results\":[");
    if (at == std::string::npos)
        return false;
    for (std::size_t k = 0; k < points.size(); ++k) {
        const std::size_t i = points[k];
        const std::string head =
            "{\"index\":" + std::to_string(k) + ",\"fingerprint\":" +
            service::jsonNumber(stream.distinct[i].fingerprint()) +
            ",\"ok\":true,\"cacheHit\":";
        const std::string tail =
            ",\"result\":" +
            service::ConfigCodec::serializeResult(ref.results[i]) + "}";
        at = response.find(head, at);
        if (at == std::string::npos)
            return false;
        at += head.size();
        const bool hit = response.compare(at, 4, "true") == 0;
        hits += hit ? 1 : 0;
        if ((line.kind == Kind::Hit && !hit) ||
            (line.kind == Kind::Miss && hit))
            return false;
        const std::size_t flag = hit ? 4 : 5;
        if (response.compare(at + flag, tail.size(), tail) != 0)
            return false;
        at += flag + tail.size();
    }
    return true;
}

/** Write the pre-seeded cache file: archive, then the popular points,
 *  then half a record — a torn append the load must salvage past. */
void
writeSeededCache(const std::string &path, const ParsedStream &stream,
                 const PassResult &ref)
{
    std::remove(path.c_str());
    {
        service::CacheStore::Appender appender;
        if (!appender.open(path))
            throw std::runtime_error("cannot write " + path);
        for (const auto &group : {stream.archive, stream.hot}) {
            for (const std::size_t i : group)
                appender.append(stream.distinct[i], ref.results[i]);
        }
    }
    const std::string torn = service::CacheStore::encodeRecord(
        stream.distinct[stream.hot[0]], ref.results[stream.hot[0]]);
    std::ofstream(path, std::ios::binary | std::ios::app)
        << torn.substr(0, torn.size() / 2);
}

/**
 * The daemon's serving path replayed in process through the service
 * layer's public functions (traced runs only): salvage-load, compact,
 * attach the appender, then parse, batch and serialize every line.
 */
void
replayInProcess(const DaemonInput &input, const ParsedStream &stream,
                const PassResult &ref, const std::string &seeded,
                const Args &args, Tracer &tracer, Report &report)
{
    const std::string file = args.outDir + "/daemon-replay.store";
    std::filesystem::copy_file(
        seeded, file, std::filesystem::copy_options::overwrite_existing);
    service::SweepService svc(kDaemonCacheCapacity);
    service::CacheStore::LoadStats loaded;
    double load_ms = 0.0;
    {
        ScopedSpan span(tracer, "service", "store_load");
        loaded = service::CacheStore::load(svc.cache(), file);
        load_ms = span.elapsedMs();
    }
    {
        ScopedSpan span(tracer, "service", "store_compact");
        service::CacheStore::save(svc.cache(), file);
    }
    service::CacheStore::Appender appender;
    if (!appender.open(file))
        throw std::runtime_error("cannot open " + file);
    std::mutex mu; // guards append_us
    std::vector<double> append_us, parse_us, batch_ms, serialize_us;
    svc.cache().setSpillHook([&](const service::RequestPoint &p,
                                 const workloads::KernelResult &r) {
        ScopedSpan span(tracer, "service", "store_append");
        appender.append(p, r);
        const double us = span.elapsedMs() * 1e3;
        std::lock_guard<std::mutex> lock(mu);
        append_us.push_back(us);
    });

    for (std::size_t j = 0; j < input.lines.size(); ++j) {
        const DaemonLine &line = input.lines[j];
        const bool bad = line.kind == DaemonLine::Kind::Bad;
        ScopedSpan request(tracer, "service", "request", Tracer::kNoParent,
                           j);
        if (line.text.size() > kDaemonMaxRequestBytes)
            continue; // the daemon rejects it unread
        service::SweepRequest parsed;
        bool parse_failed = false;
        {
            ScopedSpan span(tracer, "service", "parse", request.id(), j);
            try {
                parsed = service::ConfigCodec::parseRequest(line.text);
            } catch (const std::exception &) {
                parse_failed = true;
            }
            parse_us.push_back(span.elapsedMs() * 1e3);
        }
        if (parse_failed != bad)
            ++report.failed;
        if (parse_failed)
            continue;
        double ms = 0.0;
        const auto outcomes = runBatchTraced(svc, parsed, args.threads,
                                             tracer, ms, request.id());
        batch_ms.push_back(ms);
        ScopedSpan span(tracer, "service", "serialize", request.id(), j);
        for (std::size_t k = 0; k < outcomes.size(); ++k) {
            const Clock::time_point t0 = Clock::now();
            const std::string text =
                service::ConfigCodec::serializeResult(outcomes[k].result);
            serialize_us.push_back(msBetween(t0, Clock::now()) * 1e3);
            const auto &want = ref.results[stream.linePoints[j].at(k)];
            if (!outcomes[k].ok ||
                text != service::ConfigCodec::serializeResult(want))
                ++report.failed;
        }
    }

    const auto &cs = svc.cache().stats();
    auto &L = report.perLayer;
    L["service.parse_us"] = median(parse_us);
    L["service.batch_ms"] = median(batch_ms);
    L["service.serialize_us"] = median(serialize_us);
    L["service.cache_hit_ratio"] =
        cs.hits + cs.misses ? double(cs.hits) / double(cs.hits + cs.misses)
                            : 0.0;
    L["service.cache_evictions"] = static_cast<double>(cs.evictions);
    L["service.store_append_us"] = median(append_us);
    L["service.store_load_ms"] = load_ms;
    L["service.store_records_loaded"] = static_cast<double>(loaded.loaded);
}

} // namespace

Report
runDaemonWorkload(const Args &args)
{
    Report report;
    Tracer tracer(args.trace);
    Tracer off(false);

    // Inputs, and the in-process reference: every distinct point the
    // stream names, run once through the instrumented sweep pass.
    const DaemonInput input = generateDaemonInput(args.seed);
    const ParsedStream stream = parseStream(input);
    std::vector<GridPoint> grid;
    for (const service::RequestPoint &p : stream.distinct)
        grid.push_back({p.config, nullptr, p.workload,
                        service::ConfigCodec::serialize(p)});
    const PassResult ref = runPass(grid, args.threads, tracer);
    for (const bool ok : ref.ok)
        report.failed += ok ? 0 : 1;
    report.attempted += grid.size();
    report.resultDigest = resultDigest(grid, ref);
    report.countDigest = countDigest(ref);

    const std::string seeded = args.outDir + "/daemon-seeded.store";
    const std::string file = args.outDir + "/daemon-pass.store";
    writeSeededCache(seeded, stream, ref);
    const std::vector<std::string> daemon_args = {
        "--serve",
        "--cache-file",
        file,
        "--cache-capacity",
        std::to_string(kDaemonCacheCapacity),
        "--threads",
        std::to_string(args.threads),
        "--max-request-bytes",
        std::to_string(kDaemonMaxRequestBytes)};

    // Measured window: whole passes of the stream, each on a fresh
    // daemon. setup_s is spawn to first answer (line 0, a cache hit),
    // so it covers exec, salvage-load and compaction.
    const unsigned min_passes = args.trace ? 4 : 3;
    std::vector<double> setup_s, wall_s, traced_s, item_ms, rss_mb;
    std::vector<std::string> first;
    std::size_t entries = 0, cache_hits = 0; // result entries of a pass
    for (const auto &points : stream.linePoints)
        entries += points.size();
    const Clock::time_point start = Clock::now();
    for (std::size_t pass = 0;
         pass < min_passes ||
         msBetween(start, Clock::now()) < args.seconds * 1e3;
         ++pass) {
        const bool traced = args.trace && pass % 2 == 1;
        Tracer &t = traced ? tracer : off;
        std::filesystem::copy_file(
            seeded, file, std::filesystem::copy_options::overwrite_existing);
        std::vector<std::string> responses(input.lines.size());
        const Clock::time_point t0 = Clock::now();
        DaemonProcess daemon(args.sweepd, daemon_args,
                             args.outDir + "/sweepd.log");
        bool alive = daemon.send(input.lines[0].text) &&
                     daemon.receive(responses[0]);
        const Clock::time_point ready = Clock::now();
        setup_s.push_back(msBetween(t0, ready) / 1e3);
        for (std::size_t j = 1; alive && j < input.lines.size(); ++j) {
            ScopedSpan span(t, "client", "request", Tracer::kNoParent, j);
            alive = daemon.send(input.lines[j].text) &&
                    daemon.receive(responses[j]);
            item_ms.push_back(span.elapsedMs());
        }
        (traced ? traced_s : wall_s)
            .push_back(msBetween(ready, Clock::now()) / 1e3);
        double peak_mb = 0.0;
        if (!alive || daemon.finish(peak_mb) != 0)
            ++report.failed;
        rss_mb.push_back(peak_mb);

        report.attempted += input.lines.size();
        for (std::size_t j = 0; j < input.lines.size(); ++j) {
            const bool good =
                pass == 0 ? responseCorrect(responses[j], input.lines[j],
                                            stream.linePoints[j], stream,
                                            ref, cache_hits)
                          : responses[j] == first[j];
            report.failed += good ? 0 : 1;
        }
        if (pass == 0)
            first = std::move(responses);
    }

    const std::string req_note = samplesNote(item_ms.size(), "requests");
    report.endToEnd = {
        {"setup_s", median(setup_s), samplesNote(setup_s.size(), "spawns")},
        {"pass_s", median(wall_s), samplesNote(wall_s.size(), "passes")},
        {"item_ms_p50", percentileOrThrow(item_ms, 50), req_note},
        {"item_ms_p90", percentileOrThrow(item_ms, 90), req_note},
        {"peak_rss_mb", median(rss_mb), samplesNote(rss_mb.size(), "daemons")},
    };
    report.notes.push_back(
        std::to_string(input.lines.size()) + " requests x " +
        std::to_string(setup_s.size()) + " passes, closed loop, 1 client, " +
        std::to_string(stream.distinct.size()) + " distinct points, " +
        "cache capacity " + std::to_string(kDaemonCacheCapacity));
    report.notes.push_back(
        "answered from cache: " + std::to_string(cache_hits) + " of " +
        std::to_string(entries) + " result entries of a pass (every Hit "
        "line, no Miss line)");
    report.notes.push_back("daemon: " + args.sweepd);
    if (!args.trace)
        return report;

    std::vector<core::MachineConfig> configs;
    for (const GridPoint &g : grid)
        configs.push_back(g.config);
    std::vector<double> build_ms, reset_ms;
    const auto shapes = buildShapes(configs, tracer, build_ms);
    probeResets(shapes, configs, tracer, reset_ms);
    replayInProcess(input, stream, ref, seeded, args, tracer, report);
    addPassLayers(report, {ref});
    report.perLayer["core.machine_build_ms"] = median(build_ms);
    report.perLayer["core.machine_reset_ms"] = median(reset_ms);
    finishTrace(report, tracer, args, median(traced_s), median(wall_s), 1);
    return report;
}

} // namespace perfbench
