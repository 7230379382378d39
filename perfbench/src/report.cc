#include "report.hh"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "service/json.hh"
#include "workloads.hh"

namespace perfbench {

namespace service = wisync::service;

double
percentileOrThrow(const std::vector<double> &v, double pct)
{
    const auto p = percentile(v, pct);
    if (!p)
        throw std::runtime_error(
            "p" + std::to_string(static_cast<int>(pct)) + " refused: " +
            std::to_string(samplesBeyond(v.size(), pct)) +
            " samples beyond it, need 10");
    return *p;
}

void
finishTrace(Report &report, const Tracer &tracer, const Args &args,
            double traced_pass_s, double untraced_pass_s,
            std::size_t traced_units)
{
    const double overhead_pct =
        (traced_pass_s / untraced_pass_s - 1.0) * 100.0;
    const auto self = tracer.selfMsByLayer();
    auto self_of = [&](const char *layer, double units) {
        const auto it = self.find(layer);
        return it == self.end() ? 0.0 : it->second / units;
    };
    const double units = static_cast<double>(traced_units);
    auto &L = report.perLayer;
    L["harness.self_ms"] = self_of("harness", units);
    L["workloads.self_ms"] = self_of("workloads", units);
    L["service.self_ms"] = self_of("service", 1.0);
    L["trace.overhead_pct"] = overhead_pct;

    std::string table = "self time by layer (ms):";
    for (const auto &[layer, ms] : self)
        table += " " + layer + "=" + service::jsonNumber(ms);
    report.notes.push_back(table);
    report.notes.push_back(
        "sim, coro, noc, mem, bm and wireless run inside the engine: "
        "counts only, their host time is inside workloads.run");

    const std::string path = args.outDir + "/trace-" +
                             workloadName(args.workload) + "-" +
                             std::to_string(args.seed) + ".json";
    const std::string meta =
        std::string("{\"workload\":\"") + workloadName(args.workload) +
        "\",\"seed\":" + std::to_string(args.seed) +
        ",\"overhead_pct\":" + service::jsonNumber(overhead_pct) + "}";
    if (!tracer.writeChrome(path, meta))
        throw std::runtime_error("cannot write " + path);
    report.notes.push_back("trace: " + path + " (" +
                           std::to_string(tracer.size()) + " spans)");
    report.notes.push_back(
        "tracing overhead: " + service::jsonNumber(overhead_pct) +
        "% (median traced vs untraced pass)");
}

namespace {

std::string
number(double v)
{
    return service::jsonNumber(std::isfinite(v) ? v : 0.0);
}

} // namespace

int
printReport(const Report &report, const Args &args)
{
    const std::vector<MetricDef> &defs =
        args.trace ? perLayerMetrics() : endToEndMetrics();
    for (const std::string &note : report.notes)
        std::printf("# %s\n", note.c_str());
    std::printf("result_digest %s\ncount_digest %s\n",
                report.resultDigest.c_str(), report.countDigest.c_str());

    std::string metrics;
    for (const MetricDef &def : defs) {
        double value = 0.0;
        std::string samples;
        if (args.trace) {
            const auto it = report.perLayer.find(def.name);
            if (it == report.perLayer.end())
                throw std::logic_error(std::string("no value for ") +
                                       def.name);
            value = it->second;
        } else {
            const Measured *m = nullptr;
            for (const Measured &e : report.endToEnd)
                m = e.name == def.name ? &e : m;
            if (m == nullptr)
                throw std::logic_error(std::string("no value for ") +
                                       def.name);
            value = m->value;
            samples = m->samples;
        }
        std::printf("%-34s %14s %-7s %s\n", def.name, number(value).c_str(),
                    def.unit, samples.c_str());
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" +
                   def.name + "\": {\"value\": " + number(value) +
                   ", \"unit\": \"" + def.unit + "\"}";
    }
    const bool correct = report.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace perfbench
