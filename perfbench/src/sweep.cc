/**
 * @file
 * The sweep workloads (paper-apps, wireless-sync): set up the grid,
 * then run it through ParallelSweep pass after pass for the measured
 * window, checking every pass against the first.
 */

#include "workloads.hh"

#include <cstdio>
#include <mutex>

#include "service/cache_store.hh"
#include "service/sweep_service.hh"

namespace perfbench {

using namespace wisync;

namespace {

std::vector<core::MachineConfig>
configsOf(const std::vector<GridPoint> &grid)
{
    std::vector<core::MachineConfig> configs;
    for (const GridPoint &g : grid)
        configs.push_back(g.config);
    return configs;
}

/**
 * The service layer over this grid's configs (traced runs only): the
 * points, each with a short barrier loop, are serialized and parsed
 * back, answered cold by a SweepService whose cache holds half of them
 * and spills every insert to a CacheStore file, then answered again by
 * a second service warmed from that file. Both answers must agree.
 */
void
serviceProbe(const std::vector<GridPoint> &grid, const Args &args,
             Tracer &tracer, Report &report)
{
    service::SweepRequest request;
    for (const GridPoint &g : grid) {
        service::RequestPoint p{g.config, {}};
        p.workload.tightLoop.iterations = 10;
        request.points.push_back(p);
    }
    std::string text;
    {
        ScopedSpan span(tracer, "service", "serialize_request");
        text = service::ConfigCodec::serializeRequest(request);
    }
    service::SweepRequest parsed;
    double parse_ms = 0.0;
    {
        ScopedSpan span(tracer, "service", "parse");
        parsed = service::ConfigCodec::parseRequest(text);
        parse_ms = span.elapsedMs();
    }
    if (!(parsed.points == request.points))
        ++report.failed;

    const std::string store = args.outDir + "/probe.store";
    std::remove(store.c_str());
    const std::size_t capacity = request.points.size() / 2;
    service::SweepService cold(capacity);
    service::CacheStore::Appender appender;
    if (!appender.open(store))
        throw std::runtime_error("cannot open " + store);
    std::mutex mu; // guards append_us
    std::vector<double> append_us;
    cold.cache().setSpillHook([&](const service::RequestPoint &p,
                                  const workloads::KernelResult &r) {
        ScopedSpan span(tracer, "service", "store_append");
        appender.append(p, r);
        const double us = span.elapsedMs() * 1e3;
        std::lock_guard<std::mutex> lock(mu);
        append_us.push_back(us);
    });
    double batch_ms = 0.0, warm_ms = 0.0;
    const auto cold_out =
        runBatchTraced(cold, parsed, args.threads, tracer, batch_ms);
    appender.close();

    service::SweepService warm(capacity);
    service::CacheStore::LoadStats loaded;
    double load_ms = 0.0;
    {
        ScopedSpan span(tracer, "service", "store_load");
        loaded = service::CacheStore::load(warm.cache(), store);
        load_ms = span.elapsedMs();
    }
    const auto warm_out =
        runBatchTraced(warm, parsed, args.threads, tracer, warm_ms);
    for (std::size_t i = 0; i < cold_out.size(); ++i) {
        if (!cold_out[i].ok || !warm_out[i].ok ||
            !workloads::bitIdentical(cold_out[i].result,
                                     warm_out[i].result))
            ++report.failed;
    }
    report.attempted += cold_out.size();

    const auto &cs = warm.cache().stats();
    auto &L = report.perLayer;
    L["service.parse_us"] = parse_ms * 1e3 / parsed.points.size();
    L["service.batch_ms"] = batch_ms;
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
runSweepWorkload(const Args &args)
{
    Report report;
    Tracer tracer(args.trace);
    Tracer off(false);

    // Setup: generate the grid, parse it through the codec and build
    // one Machine per structural shape. It repeats before every pass
    // and twice up front, so setup_s is a median over the whole run.
    // The machines are freed once timed: the pass builds its own, and
    // peak_rss_mb must not count machines the harness never holds.
    std::vector<double> setup_s, build_ms;
    std::vector<GridPoint> grid;
    auto setup = [&] {
        const Clock::time_point t0 = Clock::now();
        grid = parseGrid(generateSweepInput(args.workload, args.seed));
        const auto shapes = buildShapes(
            configsOf(grid), setup_s.empty() ? tracer : off, build_ms);
        setup_s.push_back(msBetween(t0, Clock::now()) / 1e3);
    };
    setup();
    setup();

    // Measured window: whole passes until the time is up. Traced runs
    // alternate traced and untraced passes to measure the overhead.
    const unsigned min_passes = args.trace ? 4 : 3;
    std::vector<PassResult> passes;
    std::vector<double> wall_s, traced_s;
    const Clock::time_point start = Clock::now();
    while (passes.size() < min_passes ||
           msBetween(start, Clock::now()) < args.seconds * 1e3) {
        setup();
        const bool traced = args.trace && passes.size() % 2 == 1;
        passes.push_back(runPass(grid, args.threads, traced ? tracer : off));
        (traced ? traced_s : wall_s).push_back(passes.back().wallMs / 1e3);
    }

    std::vector<double> point_ms;
    for (const PassResult &p : passes) {
        report.attempted += p.ok.size();
        for (const bool ok : p.ok)
            report.failed += ok ? 0 : 1;
        report.failed += countDrift(passes.front(), p);
        point_ms.insert(point_ms.end(), p.pointMs.begin(), p.pointMs.end());
    }
    std::vector<double> serialize_us;
    report.resultDigest = resultDigest(grid, passes.front(), &serialize_us);
    report.countDigest = countDigest(passes.front());

    const std::string points_note = samplesNote(point_ms.size(), "points");
    report.endToEnd = {
        {"setup_s", median(setup_s), samplesNote(setup_s.size(), "setups")},
        {"pass_s", median(wall_s), samplesNote(wall_s.size(), "passes")},
        {"item_ms_p50", percentileOrThrow(point_ms, 50), points_note},
        {"item_ms_p90", percentileOrThrow(point_ms, 90), points_note},
        {"peak_rss_mb", selfPeakRssMb(), "n=1 process"},
    };
    report.notes.push_back(std::to_string(grid.size()) + " points x " +
                           std::to_string(passes.size()) + " passes on " +
                           std::to_string(args.threads) + " threads");
    if (!args.trace)
        return report;

    std::vector<double> rebuild_ms, reset_ms;
    const auto shapes = buildShapes(configsOf(grid), off, rebuild_ms);
    probeResets(shapes, configsOf(grid), tracer, reset_ms);
    serviceProbe(grid, args, tracer, report);
    addPassLayers(report, passes);
    auto &L = report.perLayer;
    L["core.machine_build_ms"] = median(build_ms);
    L["core.machine_reset_ms"] = median(reset_ms);
    L["service.serialize_us"] = median(serialize_us);
    finishTrace(report, tracer, args, median(traced_s), median(wall_s),
                traced_s.size());
    return report;
}

} // namespace perfbench
