#include "metrics.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s", "lower"},
        {"pass_s", "s", "lower"},
        {"item_ms_p50", "ms", "lower"},
        {"item_ms_p90", "ms", "lower"},
        {"peak_rss_mb", "MB", "lower"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sim.events", "count", "lower"},
        {"sim.events_per_cycle", "1/cycle", "lower"},
        {"sim.ns_per_event", "ns", "lower"},
        {"sim.tier_ready", "count", "lower"},
        {"sim.tier_calendar", "count", "lower"},
        {"sim.tier_heap", "count", "lower"},
        {"sim.cascades", "count", "lower"},
        {"coro.frames_pooled", "count", "lower"},
        {"coro.frames_fallback", "count", "lower"},
        {"coro.freelist_reuse_ratio", "ratio", "higher"},
        {"noc.mesh_messages", "count", "lower"},
        {"noc.mesh_flits", "count", "lower"},
        {"noc.mesh_fastpath_ratio", "ratio", "higher"},
        {"noc.bridge_frames", "count", "lower"},
        {"noc.bridge_busy_cycles", "cycles", "lower"},
        {"mem.loads", "count", "lower"},
        {"mem.stores", "count", "lower"},
        {"mem.rmws", "count", "lower"},
        {"mem.l1_hit_ratio", "ratio", "higher"},
        {"mem.invalidations", "count", "lower"},
        {"mem.dram_fetches", "count", "lower"},
        {"mem.fastpath_ratio", "ratio", "higher"},
        {"mem.dir_rehashes", "count", "lower"},
        {"bm.stores", "count", "lower"},
        {"bm.rmws", "count", "lower"},
        {"bm.rmw_success_ratio", "ratio", "higher"},
        {"bm.tone_stores", "count", "lower"},
        {"bm.send_reissues", "count", "lower"},
        {"wireless.tone_slot_cycles", "cycles", "lower"},
        {"wireless.tone_ticks_per_release", "cycles", "lower"},
        {"wireless.data_messages", "count", "lower"},
        {"wireless.delivery_ratio", "ratio", "higher"},
        {"wireless.data_busy_cycles", "cycles", "lower"},
        {"wireless.mac_backoff_cycles", "cycles", "lower"},
        {"wireless.retransmits", "count", "lower"},
        {"wireless.giveups", "count", "lower"},
        {"core.machine_build_ms", "ms", "lower"},
        {"core.machine_reset_ms", "ms", "lower"},
        {"harness.reuse_ratio", "ratio", "higher"},
        {"harness.worker_busy_frac", "ratio", "higher"},
        {"harness.self_ms", "ms", "lower"},
        {"workloads.run_ms", "ms", "lower"},
        {"workloads.host_us_per_op", "us", "lower"},
        {"workloads.self_ms", "ms", "lower"},
        {"service.parse_us", "us", "lower"},
        {"service.batch_ms", "ms", "lower"},
        {"service.serialize_us", "us", "lower"},
        {"service.cache_hit_ratio", "ratio", "higher"},
        {"service.cache_evictions", "count", "lower"},
        {"service.store_append_us", "us", "lower"},
        {"service.store_load_ms", "ms", "lower"},
        {"service.store_records_loaded", "count", "higher"},
        {"service.self_ms", "ms", "lower"},
        {"trace.overhead_pct", "%", "lower"},
    };
    return defs;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/** Zero-based nearest-rank index of the @p pct percentile of n samples. */
std::size_t
rankIndex(std::size_t n, double pct)
{
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
    return rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
}

} // namespace

std::size_t
samplesBeyond(std::size_t n, double pct)
{
    return n == 0 ? 0 : n - 1 - rankIndex(n, pct);
}

std::optional<double>
percentile(std::vector<double> v, double pct)
{
    if (samplesBeyond(v.size(), pct) < 10)
        return std::nullopt;
    std::sort(v.begin(), v.end());
    return v[rankIndex(v.size(), pct)];
}

void
Digest::add(const std::string &bytes)
{
    for (const unsigned char c : bytes) {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }
    // Length-terminate so concatenations cannot alias.
    add(static_cast<std::uint64_t>(bytes.size()));
}

void
Digest::add(std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (word >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ull;
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

} // namespace perfbench
