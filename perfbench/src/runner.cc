#include "runner.hh"

#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "harness/parallel_sweep.hh"
#include "service/json.hh"

namespace perfbench {

using namespace wisync;

std::vector<GridPoint>
parseGrid(const std::string &text)
{
    const service::Json doc = service::Json::parse(text);
    const service::Json *points = doc.find("points");
    if (points == nullptr || !points->isArray())
        throw std::runtime_error("grid: missing \"points\" array");
    std::vector<GridPoint> grid;
    grid.reserve(points->array().size());
    for (std::size_t i = 0; i < points->array().size(); ++i) {
        const service::Json &p = points->array()[i];
        const std::string path = "points[" + std::to_string(i) + "]";
        const service::Json *cfg = p.find("config");
        if (cfg == nullptr)
            throw std::runtime_error(path + ": missing config");
        GridPoint g;
        g.config = service::ConfigCodec::parseConfig(*cfg, i, path + ".config");
        if (const service::Json *app = p.find("app")) {
            g.app = &workloads::appByName(app->str());
            g.label = service::ConfigCodec::serialize(g.config) +
                      " app=" + g.app->name;
        } else {
            const service::Json *w = p.find("workload");
            if (w == nullptr)
                throw std::runtime_error(path + ": missing workload");
            g.spec = service::ConfigCodec::parseWorkload(*w, i,
                                                         path + ".workload");
            g.label = service::ConfigCodec::serialize(requestPoint(g));
        }
        grid.push_back(std::move(g));
    }
    return grid;
}

service::RequestPoint
requestPoint(const GridPoint &p)
{
    return {p.config, p.spec};
}

namespace {

/** When and where one point's workload ran. */
struct Slot
{
    Clock::time_point start;
    Clock::time_point end;
    std::thread::id thread;
    const core::Machine *machine = nullptr;
    HostCounts host;
};

} // namespace

PassResult
runPass(const std::vector<GridPoint> &grid, unsigned threads,
        Tracer &tracer, std::uint64_t parent)
{
    const std::size_t n = grid.size();
    PassResult pass;
    pass.ok.assign(n, false);
    pass.counts.resize(n);
    pass.pointMs.resize(n);
    pass.threads = static_cast<unsigned>(
        std::min<std::size_t>(threads, std::max<std::size_t>(n, 1)));
    std::vector<Slot> slots(n);

    harness::ParallelSweep sweep;
    for (std::size_t i = 0; i < n; ++i) {
        sweep.add(grid[i].config, [&, i](core::Machine &m) {
            const GridPoint &g = grid[i];
            Slot &slot = slots[i];
            const PreRun pre = snapshot(m);
            slot.start = Clock::now();
            workloads::KernelResult r =
                g.app != nullptr ? workloads::runAppOn(*g.app, m)
                                 : service::runWorkload(g.spec, m);
            slot.end = Clock::now();
            // Set only once the run returned: a throwing point is a
            // failure with no timing.
            slot.thread = std::this_thread::get_id();
            slot.machine = &m;
            capture(m, pre, pass.counts[i], slot.host);
            pass.counts[i].v[kOperations] = r.operations;
            return r;
        });
    }

    const std::uint64_t sweep_id = tracer.enabled() ? tracer.newId() : 0;
    const Clock::time_point t0 = Clock::now();
    std::vector<harness::PointOutcome> outcomes = sweep.runCaptured(threads);

    // Per worker, in run order: infer machine reuse (a machine the
    // worker already ran is a reset, a new one a build) and, traced,
    // the harness span from the worker's previous point to this one.
    std::map<std::thread::id, std::vector<std::size_t>> by_worker;
    for (std::size_t i = 0; i < n; ++i) {
        if (slots[i].machine != nullptr)
            by_worker[slots[i].thread].push_back(i);
    }
    for (auto &[thread, order] : by_worker) {
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return slots[a].start < slots[b].start;
                  });
        std::set<const core::Machine *> seen;
        Clock::time_point prev_end = t0;
        for (const std::size_t i : order) {
            const Slot &s = slots[i];
            if (!seen.insert(s.machine).second)
                ++pass.reuses;
            if (tracer.enabled()) {
                const std::uint64_t point_id = tracer.newId();
                tracer.record(point_id, "harness", "point", sweep_id, i,
                              prev_end, s.end, thread);
                tracer.record(tracer.newId(), "workloads", "run", point_id,
                              i, s.start, s.end, thread);
            }
            prev_end = s.end;
        }
    }
    if (tracer.enabled())
        tracer.record(sweep_id, "harness", "sweep", parent, 0, t0,
                      Clock::now());
    pass.wallMs = msBetween(t0, Clock::now());

    pass.results.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        pass.results[i] = outcomes[i].result;
        pass.ok[i] = outcomes[i].ok && outcomes[i].result.completed;
        pass.pointMs[i] =
            slots[i].machine ? msBetween(slots[i].start, slots[i].end) : 0.0;
        pass.host += slots[i].host;
    }
    return pass;
}

LayerCounts
totalCounts(const PassResult &pass)
{
    LayerCounts sum;
    for (const LayerCounts &c : pass.counts)
        sum += c;
    return sum;
}

std::string
resultDigest(const std::vector<GridPoint> &grid, const PassResult &pass,
             std::vector<double> *serialize_us)
{
    Digest d;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        d.add(grid[i].label);
        d.add(std::uint64_t{pass.ok[i]});
        const Clock::time_point t0 = Clock::now();
        const std::string text =
            service::ConfigCodec::serializeResult(pass.results[i]);
        if (serialize_us != nullptr)
            serialize_us->push_back(msBetween(t0, Clock::now()) * 1e3);
        d.add(text);
    }
    return d.hex();
}

std::string
countDigest(const PassResult &pass)
{
    Digest d;
    for (const LayerCounts &c : pass.counts) {
        for (const std::uint64_t v : c.v)
            d.add(v);
    }
    return d.hex();
}

std::size_t
countDrift(const PassResult &ref, const PassResult &pass)
{
    std::size_t drift = 0;
    for (std::size_t i = 0; i < ref.results.size(); ++i) {
        if (ref.ok[i] != pass.ok[i] ||
            !workloads::bitIdentical(ref.results[i], pass.results[i]) ||
            !(ref.counts[i] == pass.counts[i]))
            ++drift;
    }
    return drift;
}

std::vector<std::unique_ptr<core::Machine>>
buildShapes(const std::vector<core::MachineConfig> &configs, Tracer &tracer,
            std::vector<double> &build_ms)
{
    std::vector<std::unique_ptr<core::Machine>> machines;
    for (const core::MachineConfig &cfg : configs) {
        const bool have = std::any_of(
            machines.begin(), machines.end(),
            [&](const auto &m) { return m->config().compatibleShape(cfg); });
        if (have)
            continue;
        ScopedSpan span(tracer, "core", "build");
        machines.push_back(std::make_unique<core::Machine>(cfg));
        build_ms.push_back(span.elapsedMs());
    }
    return machines;
}

void
probeResets(const std::vector<std::unique_ptr<core::Machine>> &machines,
            const std::vector<core::MachineConfig> &configs, Tracer &tracer,
            std::vector<double> &reset_ms)
{
    for (const core::MachineConfig &cfg : configs) {
        for (const auto &m : machines) {
            if (!m->config().compatibleShape(cfg))
                continue;
            ScopedSpan span(tracer, "core", "reset");
            m->reset(cfg);
            reset_ms.push_back(span.elapsedMs());
            break;
        }
    }
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
addPassLayers(Report &report, const std::vector<PassResult> &passes)
{
    const PassResult &ref = passes.front();
    const LayerCounts c = totalCounts(ref);
    const double k = static_cast<double>(passes.size());
    auto &L = report.perLayer;
    auto d = [&](Count i) { return static_cast<double>(c[i]); };

    std::vector<double> point_ms;
    double run_ms = 0.0, busy_den_ms = 0.0, reuses = 0.0, points = 0.0;
    HostCounts host;
    for (const PassResult &p : passes) {
        point_ms.insert(point_ms.end(), p.pointMs.begin(), p.pointMs.end());
        for (const double ms : p.pointMs)
            run_ms += ms;
        busy_den_ms += p.wallMs * p.threads;
        reuses += static_cast<double>(p.reuses);
        points += static_cast<double>(p.pointMs.size());
        host += p.host;
    }

    L["sim.events"] = d(kEvents);
    L["sim.events_per_cycle"] = ratio(d(kEvents), d(kSimCycles));
    L["sim.ns_per_event"] = ratio(run_ms * 1e6, d(kEvents) * k);
    L["sim.tier_ready"] = d(kTierReady);
    L["sim.tier_calendar"] = d(kTierCalendar);
    L["sim.tier_heap"] = d(kTierHeap);
    L["sim.cascades"] = d(kCascades);
    L["coro.frames_pooled"] = d(kFramesPooled);
    L["coro.frames_fallback"] = d(kFramesFallback);
    L["coro.freelist_reuse_ratio"] =
        ratio(static_cast<double>(host.freelistReuses), d(kFramesPooled) * k);
    L["noc.mesh_messages"] = d(kMeshMessages);
    L["noc.mesh_flits"] = d(kMeshFlits);
    L["noc.mesh_fastpath_ratio"] =
        ratio(d(kMeshFastHits), d(kMeshFastHits) + d(kMeshFastFallbacks));
    L["noc.bridge_frames"] = d(kBridgeFrames);
    L["noc.bridge_busy_cycles"] = d(kBridgeBusyCycles);
    L["mem.loads"] = d(kMemLoads);
    L["mem.stores"] = d(kMemStores);
    L["mem.rmws"] = d(kMemRmws);
    L["mem.l1_hit_ratio"] = ratio(d(kL1Hits), d(kL1Hits) + d(kL1Misses));
    L["mem.invalidations"] = d(kInvalidations);
    L["mem.dram_fetches"] = d(kDramFetches);
    L["mem.fastpath_ratio"] =
        ratio(d(kMemFastHits), d(kMemFastHits) + d(kMemFastFallbacks));
    L["mem.dir_rehashes"] = static_cast<double>(host.dirRehashes) / k;
    L["bm.stores"] = d(kBmStores);
    L["bm.rmws"] = d(kBmRmws);
    L["bm.rmw_success_ratio"] =
        ratio(d(kBmRmws) - d(kBmAfbFailures), d(kBmRmws));
    L["bm.tone_stores"] = d(kBmToneStores);
    L["bm.send_reissues"] = d(kBmSendReissues);
    L["wireless.tone_slot_cycles"] = d(kToneSlotCycles);
    L["wireless.tone_ticks_per_release"] =
        ratio(d(kToneSlotCycles), d(kToneReleases));
    L["wireless.data_messages"] = d(kDataMessages);
    L["wireless.delivery_ratio"] =
        ratio(d(kDataMessages),
              d(kDataMessages) + d(kDataCollisions) + d(kDataDrops));
    L["wireless.data_busy_cycles"] = d(kDataBusyCycles);
    L["wireless.mac_backoff_cycles"] = d(kMacBackoffCycles);
    L["wireless.retransmits"] = d(kMacRetransmits);
    L["wireless.giveups"] = d(kMacGiveups);
    L["harness.reuse_ratio"] = ratio(reuses, points);
    L["harness.worker_busy_frac"] = ratio(run_ms, busy_den_ms);
    L["workloads.run_ms"] = median(point_ms);
    L["workloads.host_us_per_op"] = ratio(run_ms * 1e3, d(kOperations) * k);
}

std::vector<service::ServiceOutcome>
runBatchTraced(service::SweepService &svc,
               const service::SweepRequest &request, unsigned threads,
               Tracer &tracer, double &batch_ms, std::uint64_t parent)
{
    ScopedSpan span(tracer, "service", "batch", parent);
    std::mutex mu; // guards starts
    std::map<std::size_t, Clock::time_point> starts;
    service::SweepService::Observer observer;
    if (tracer.enabled()) {
        svc.setBodyProbe([&](std::size_t index) {
            std::lock_guard<std::mutex> lock(mu);
            starts[index] = Clock::now();
        });
        observer = [&](std::size_t index, const service::ServiceOutcome &o) {
            if (o.cacheHit)
                return;
            std::lock_guard<std::mutex> lock(mu);
            if (const auto it = starts.find(index); it != starts.end())
                tracer.record(tracer.newId(), "workloads", "run", span.id(),
                              index, it->second, Clock::now());
        };
    }
    auto outcomes = svc.runBatch(request, threads, observer);
    svc.setBodyProbe({});
    batch_ms = span.elapsedMs();
    return outcomes;
}

std::string
samplesNote(std::size_t n, const char *what)
{
    return "n=" + std::to_string(n) + " " + what;
}

double
selfPeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
