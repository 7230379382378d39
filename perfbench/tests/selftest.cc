/**
 * @file
 * Self-tests of the benchmark's own machinery: seeded generation is
 * byte-stable and parses through the service codec, metric names are
 * well-formed and match BENCHMARK.json, tail percentiles are refused
 * on too few samples, and span self time subtracts covered intervals.
 *
 *   perfbench_selftest path/to/BENCHMARK.json
 */

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gen.hh"
#include "metrics.hh"
#include "runner.hh"
#include "service/config_codec.hh"
#include "service/json.hh"
#include "trace.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    }
}

void
testGeneratorIsSeeded()
{
    for (const Workload w : {Workload::PaperApps, Workload::WirelessSync}) {
        const std::string name = workloadName(w);
        for (const std::uint64_t seed : {1ull, 7ull, 123456789ull}) {
            check(generateSweepInput(w, seed) == generateSweepInput(w, seed),
                  name + ": same seed, same bytes");
        }
        check(generateSweepInput(w, 1) != generateSweepInput(w, 2),
              name + ": seeds differ");
    }
    for (const std::uint64_t seed : {1ull, 7ull, 123456789ull}) {
        check(serializeDaemonInput(generateDaemonInput(seed)) ==
                  serializeDaemonInput(generateDaemonInput(seed)),
              "daemon-mixed: same seed, same bytes");
    }
    check(serializeDaemonInput(generateDaemonInput(1)) !=
              serializeDaemonInput(generateDaemonInput(2)),
          "daemon-mixed: seeds differ");
}

void
testInputsParse()
{
    check(parseGrid(generateSweepInput(Workload::PaperApps, 3)).size() ==
              200,
          "paper-apps: 5 variants x 10 apps x 4 kinds");
    check(parseGrid(generateSweepInput(Workload::WirelessSync, 3)).size() ==
              76,
          "wireless-sync: 64 main + 8 lossy + 4 multi-chip points");

    const DaemonInput in = generateDaemonInput(3);
    std::set<DaemonLine::Kind> kinds;
    for (const DaemonLine &line : in.lines) {
        kinds.insert(line.kind);
        bool parsed = true;
        try {
            wisync::service::ConfigCodec::parseRequest(line.text);
        } catch (const std::exception &) {
            parsed = false;
        }
        const bool bad = line.kind == DaemonLine::Kind::Bad;
        const bool oversized = line.text.size() > kDaemonMaxRequestBytes;
        check(bad ? (!parsed || oversized) : parsed && !oversized,
              "daemon line parses iff it is not Bad: " +
                  line.text.substr(0, 60));
    }
    check(kinds.size() == 4, "daemon stream mixes all four line kinds");
    check(in.lines.front().kind == DaemonLine::Kind::Hit,
          "daemon stream opens with a cache hit");
}

void
testMetricNames(const std::string &benchmark_json)
{
    std::set<std::string> names;
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &d : *defs) {
            check(validMetricName(d.name), std::string("name ") + d.name);
            check(names.insert(d.name).second,
                  std::string("unique ") + d.name);
        }
    }
    check(!validMetricName("") && !validMetricName("a b") &&
              !validMetricName(".x") && !validMetricName(std::string(65, 'a')),
          "malformed names are refused");

    std::ifstream f(benchmark_json);
    std::stringstream text;
    text << f.rdbuf();
    check(bool(f), "read " + benchmark_json);
    if (!f)
        return;
    const auto doc = wisync::service::Json::parse(text.str());
    auto same = [&](const char *key, const std::vector<MetricDef> &defs) {
        const auto *list = doc.find(key);
        check(list != nullptr && list->isArray() &&
                  list->array().size() == defs.size(),
              std::string(key) + ": one entry per catalogue metric");
        if (list == nullptr || list->array().size() != defs.size())
            return;
        for (std::size_t i = 0; i < defs.size(); ++i) {
            const auto &m = list->array()[i];
            check(m.find("name")->str() == defs[i].name &&
                      m.find("unit")->str() == defs[i].unit &&
                      m.find("better")->str() == defs[i].better,
                  std::string(key) + " entry " + defs[i].name);
        }
    };
    same("end_to_end", endToEndMetrics());
    same("per_layer", perLayerMetrics());
}

void
testPercentileRefusal()
{
    std::vector<double> v;
    for (int i = 1; i <= 99; ++i)
        v.push_back(i);
    check(!percentile(v, 90), "p90 of 99 samples is refused (9 beyond)");
    v.push_back(100);
    check(percentile(v, 90) == 90.0, "p90 of 100 samples is the 90th");
    check(!percentile(std::vector<double>(19, 1.0), 50),
          "p50 of 19 samples is refused");
    check(percentile(std::vector<double>(20, 1.0), 50).has_value(),
          "p50 of 20 samples is reported");
    check(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even count");
}

void
testSelfTime()
{
    Tracer t(true);
    const auto base = Clock::now();
    auto at = [&](int ms) { return base + std::chrono::milliseconds(ms); };
    const auto parent = t.newId();
    t.record(t.newId(), "child", "a", parent, 0, at(1), at(3));
    t.record(t.newId(), "child", "b", parent, 0, at(2), at(5));
    t.record(parent, "top", "p", Tracer::kNoParent, 0, at(0), at(10));
    const auto self = t.selfMsByLayer();
    check(self.at("top") > 5.999 && self.at("top") < 6.001,
          "self time subtracts the union of child intervals");
    check(self.at("child") > 4.999 && self.at("child") < 5.001,
          "leaf self time is its duration");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: perfbench_selftest BENCHMARK.json\n");
        return 2;
    }
    testGeneratorIsSeeded();
    testInputsParse();
    testMetricNames(argv[1]);
    testPercentileRefusal();
    testSelfTime();
    if (failures != 0) {
        std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
        return 1;
    }
    std::printf("PERFBENCH SELF-TEST PASS\n");
    return 0;
}
