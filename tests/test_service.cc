/**
 * @file
 * Sweep-service subsystem tests: the codec's round-trip /
 * canonicalization / strictness contracts, MachineConfig equality and
 * fingerprint stability, the exact LRU result cache, deterministic
 * sharding with by-index merge, ParallelSweep's captured-error mode,
 * and the SweepService identity bar — every batch byte-identical to a
 * serial, cache-disabled run at any thread count, cache warmth or
 * shard split.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <cmath>
#include <limits>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/machine.hh"
#include "core/machine_config.hh"
#include "harness/parallel_sweep.hh"
#include "service/config_codec.hh"
#include "service/result_cache.hh"
#include "service/shard_planner.hh"
#include "service/sweep_service.hh"
#include "sim/engine.hh"
#include "workloads/kernel_result.hh"
#include "workloads/tight_loop.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::core::Variant;
using wisync::harness::ParallelSweep;
using wisync::core::FieldSpec;
using wisync::service::ConfigCodec;
using wisync::service::Json;
using wisync::service::DeadlineExceeded;
using wisync::service::ParseError;
using wisync::service::RequestPoint;
using wisync::service::ResultCache;
using wisync::service::ServiceOutcome;
using wisync::service::ShardPlanner;
using wisync::service::SweepRequest;
using wisync::service::SweepService;
using wisync::service::WorkloadSpec;
using wisync::wireless::MacKind;
using wisync::workloads::KernelResult;
using wisync::workloads::bitIdentical;

// ---- Codec: round-trip ------------------------------------------

/** A config with every wire field off its make(WiSync, 64) default
 *  (RoundTripsEveryKnob checks that against the field list). */
MachineConfig
kitchenSinkConfig()
{
    auto cfg = MachineConfig::make(ConfigKind::WiSyncNoT, 32,
                                   Variant::SlowNet);
    cfg.numChips = 2;
    cfg.issueWidth = 4;
    cfg.seed = 0xDEADBEEFCAFEF00Dull;
    cfg.wireless.macKind = MacKind::Adaptive;
    cfg.wireless.maxBackoffExp = 9;
    cfg.wireless.tokenPassCycles = 2;
    cfg.wireless.tokenFrameBits = 96;
    cfg.wireless.tokenHoldCycles = 5;
    cfg.wireless.adaptWindowEvents = 48;
    cfg.wireless.adaptHiPct = 37.5;
    cfg.wireless.adaptLoPct = 8.25;
    cfg.wireless.lossPct = 2.5;
    cfg.wireless.berFromSnr = true;
    cfg.wireless.txPowerDbm = -9.5;
    cfg.wireless.ackTimeoutCycles = 21;
    cfg.wireless.maxRetries = 6;
    cfg.wireless.retryBackoffMaxExp = 4;
    cfg.wireless.burst.enabled = true;
    cfg.wireless.burst.goodLossPct = 0.25;
    cfg.wireless.burst.badLossPct = 42.0;
    cfg.wireless.burst.pGoodToBad = 0.0125;
    cfg.wireless.burst.pBadToGood = 0.375;
    cfg.wireless.channelLossBaseDb = 1.5;
    cfg.wireless.channelLossStepDb = 0.25;
    cfg.wireless.spectrumSlots = 2;
    cfg.bridge.latencyCycles = 11;
    cfg.bridge.widthBits = 32;
    cfg.bridge.headerBits = 16;
    cfg.bridge.lossPct = 1.25;
    cfg.bridge.burst.enabled = true;
    cfg.bridge.burst.goodLossPct = 0.5;
    cfg.bridge.burst.badLossPct = 31.0;
    cfg.bridge.burst.pGoodToBad = 0.03125;
    cfg.bridge.burst.pBadToGood = 0.25;
    cfg.bridge.ackTimeoutCycles = 64;
    cfg.bridge.maxRetries = 5;
    cfg.bridge.retryBackoffMaxExp = 3;
    return cfg;
}

MachineConfig
parseConfigString(const std::string &json)
{
    return ConfigCodec::parseConfig(wisync::service::Json::parse(json));
}

// ---- Walking the forEachField list ------------------------------

/** One forEachField entry, flattened. */
struct FieldInfo
{
    /** Dotted path, e.g. "wireless.burst.pGoodToBad". */
    std::string path;
    FieldSpec spec;
    /** On the wire: the entry and every enclosing group are. */
    bool wire;
    /** A ranged integer (not a double). */
    bool integral;
};

struct FieldCollector
{
    std::vector<FieldInfo> fields;
    std::string prefix;
    bool wire = true;

    template <typename T>
    void
    field(const char *name, const T &, const FieldSpec &spec)
    {
        fields.push_back({prefix + name, spec, wire && spec.wire,
                          std::is_integral_v<T>});
    }

    template <typename Members>
    void
    group(const char *name, const FieldSpec &spec, Members &&members)
    {
        const std::string outer_prefix = prefix;
        const bool outer_wire = wire;
        prefix += std::string(name) + ".";
        wire = wire && spec.wire;
        members();
        prefix = outer_prefix;
        wire = outer_wire;
    }
};

std::vector<FieldInfo>
listedFields()
{
    FieldCollector collector;
    const MachineConfig cfg;
    forEachField(cfg, collector);
    return collector.fields;
}

/** Calls fn(member) on the entry at path. */
template <typename Fn>
struct FieldAt
{
    std::string path;
    Fn fn;
    std::string prefix = {};
    bool found = false;

    template <typename T>
    void
    field(const char *name, T &member, const FieldSpec &)
    {
        if (prefix + name == path) {
            fn(member);
            found = true;
        }
    }

    template <typename Members>
    void
    group(const char *name, const FieldSpec &, Members &&members)
    {
        const std::size_t outer = prefix.size();
        prefix += std::string(name) + ".";
        members();
        prefix.resize(outer);
    }
};

template <typename Fn>
void
withField(MachineConfig &cfg, const std::string &path, Fn fn)
{
    FieldAt<Fn> at{path, fn};
    forEachField(cfg, at);
    EXPECT_TRUE(at.found) << path;
}

/** Moves @p m off its current value. */
template <typename T>
void
nudge(T &m)
{
    if constexpr (std::is_same_v<T, bool>)
        m = !m;
    else if constexpr (std::is_enum_v<T>)
        m = static_cast<T>(static_cast<int>(m) ^ 1);
    else if constexpr (std::is_floating_point_v<T>)
        m += 0.5;
    else
        m += 1;
}

/** The JSON leaf at dotted @p path, or nullptr. */
const Json *
leafAt(const Json &doc, const std::string &path)
{
    const Json *node = &doc;
    std::size_t start = 0;
    while (node != nullptr) {
        const std::size_t dot = path.find('.', start);
        node = node->find(path.substr(start, dot - start));
        if (dot == std::string::npos)
            return node;
        start = dot + 1;
    }
    return nullptr;
}

std::string
leafText(const Json &leaf)
{
    if (leaf.isNumber())
        return leaf.rawNumber();
    if (leaf.isString())
        return leaf.str();
    return leaf.boolean() ? "true" : "false";
}

TEST(ServiceCodec, RoundTripsMakeDefaults)
{
    for (const auto kind :
         {ConfigKind::Baseline, ConfigKind::BaselinePlus,
          ConfigKind::WiSyncNoT, ConfigKind::WiSync}) {
        for (const auto variant :
             {Variant::Default, Variant::SlowNet, Variant::SlowNetL2,
              Variant::FastNet, Variant::SlowBmem}) {
            const auto cfg = MachineConfig::make(kind, 16, variant);
            const auto back =
                parseConfigString(ConfigCodec::serialize(cfg));
            EXPECT_EQ(cfg, back)
                << cfg.describe() << " did not round-trip";
            EXPECT_EQ(cfg.fingerprint(), back.fingerprint());
        }
    }
}

TEST(ServiceCodec, RoundTripsEveryKnob)
{
    const auto cfg = kitchenSinkConfig();
    const std::string json = ConfigCodec::serialize(cfg);
    // Every wire field is serialized, and set off its default.
    const Json doc = Json::parse(json);
    const Json defaults = Json::parse(ConfigCodec::serialize(
        MachineConfig::make(ConfigKind::WiSync, 64)));
    for (const FieldInfo &f : listedFields()) {
        if (!f.wire)
            continue;
        const Json *leaf = leafAt(doc, f.path);
        const Json *dflt = leafAt(defaults, f.path);
        ASSERT_NE(leaf, nullptr) << f.path;
        ASSERT_NE(dflt, nullptr) << f.path;
        EXPECT_NE(leafText(*leaf), leafText(*dflt))
            << f.path << " is at its default in the round-trip config";
    }
    const auto back = parseConfigString(json);
    EXPECT_EQ(cfg, back) << json;
    EXPECT_EQ(cfg.fingerprint(), back.fingerprint());
    // Canonical form is a fixed point of parse -> serialize.
    EXPECT_EQ(json, ConfigCodec::serialize(back));
}

TEST(ServiceCodec, CanonicalFormIgnoresSpellingOfTheSameRequest)
{
    // Same point three ways: key order shuffled, whitespace changed,
    // defaults spelled out vs omitted, numbers respelled.
    const std::string a = R"({"points":[{"config":
        {"kind":"WiSync","cores":16,"wireless":{"lossPct":0.5}},
        "workload":{"kind":"tightloop","iterations":7}}]})";
    const std::string b = R"({ "points" : [ { "workload" :
        { "iterations" : 7, "kind" : "tightloop", "arrayElems" : 50 },
        "config" : { "wireless" : { "lossPct" : 5e-1 },
        "cores" : 16, "variant" : "Default", "kind" : "WiSync",
        "chips" : 1 } } ] })";
    const auto ra = ConfigCodec::parseRequest(a);
    const auto rb = ConfigCodec::parseRequest(b);
    ASSERT_EQ(ra.points.size(), 1u);
    EXPECT_EQ(ra.points[0], rb.points[0]);
    EXPECT_EQ(ra.points[0].fingerprint(), rb.points[0].fingerprint());
    EXPECT_EQ(ConfigCodec::serializeRequest(ra),
              ConfigCodec::serializeRequest(rb));
}

TEST(ServiceCodec, SeedRoundTripsAllSixtyFourBits)
{
    // A double-typed parse would round 2^64-1 to 2^64 silently; the
    // codec parses integers off the raw token instead.
    const auto req = ConfigCodec::parseRequest(
        R"({"points":[{"config":{"kind":"Baseline","cores":8,
            "seed":18446744073709551615},
            "workload":{"kind":"tightloop"}}]})");
    EXPECT_EQ(req.points[0].config.seed, 0xFFFFFFFFFFFFFFFFull);
    const auto back = ConfigCodec::parseRequest(
        ConfigCodec::serializeRequest(req));
    EXPECT_EQ(req.points[0], back.points[0]);
}

// ---- Codec: strictness ------------------------------------------

/** EXPECT a ParseError whose field/pointIndex match. */
void
expectParseError(const std::string &request, const std::string &field,
                 std::size_t point)
{
    try {
        ConfigCodec::parseRequest(request);
        FAIL() << "no ParseError for " << request;
    } catch (const ParseError &e) {
        EXPECT_EQ(e.field(), field) << e.what();
        EXPECT_EQ(e.pointIndex(), point) << e.what();
        // what() must carry the path so the daemon's error response
        // is actionable without parsing our exception type.
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos);
    }
}

constexpr std::size_t kNoPoint = ParseError::kNoPoint;

TEST(ServiceCodec, UnknownKeysAreHardErrorsAtEveryLevel)
{
    expectParseError(R"({"points":[],"extra":1})", "extra", kNoPoint);
    expectParseError(
        R"({"points":[{"config":{"kind":"WiSync","cores":16,
            "coresX":8},"workload":{"kind":"tightloop"}}]})",
        "points[0].config.coresX", 0);
    expectParseError(
        R"({"points":[{"config":{"kind":"WiSync","cores":16,
            "wireless":{"lossPt":1}},
            "workload":{"kind":"tightloop"}}]})",
        "points[0].config.wireless.lossPt", 0);
    expectParseError(
        R"({"points":[{"config":{"kind":"WiSync","cores":16,
            "wireless":{"burst":{"enable":true}}},
            "workload":{"kind":"tightloop"}}]})",
        "points[0].config.wireless.burst.enable", 0);
    expectParseError(
        R"({"points":[{"config":{"kind":"WiSync","cores":16,"chips":2,
            "bridge":{"latency":3}},
            "workload":{"kind":"tightloop"}}]})",
        "points[0].config.bridge.latency", 0);
    expectParseError(
        R"({"points":[
            {"config":{"kind":"WiSync","cores":16},
             "workload":{"kind":"tightloop"}},
            {"config":{"kind":"WiSync","cores":16},
             "workload":{"kind":"cas","iterations":5}}]})",
        "points[1].workload.iterations", 1);
}

TEST(ServiceCodec, MalformedAndPartialRequestsNameTheField)
{
    // Not JSON at all.
    expectParseError("{nope", "<request>", kNoPoint);
    // Wrong root type.
    expectParseError(R"([1,2,3])", "<request>", kNoPoint);
    // Missing required keys.
    expectParseError(R"({})", "points", kNoPoint);
    expectParseError(
        R"({"points":[{"workload":{"kind":"tightloop"}}]})",
        "points[0].config", 0);
    expectParseError(
        R"({"points":[{"config":{"cores":16},
            "workload":{"kind":"tightloop"}}]})",
        "points[0].config.kind", 0);
    // Type and range violations.
    expectParseError(
        R"({"points":[{"config":{"kind":"WiSync","cores":"16"},
            "workload":{"kind":"tightloop"}}]})",
        "points[0].config.cores", 0);
    expectParseError(
        R"({"points":[{"config":{"kind":"WiSync","cores":16,
            "seed":-1},"workload":{"kind":"tightloop"}}]})",
        "points[0].config.seed", 0);
    expectParseError(
        R"({"points":[{"config":{"kind":"WiSync","cores":16,
            "wireless":{"lossPct":150}},
            "workload":{"kind":"tightloop"}}]})",
        "points[0].config.wireless.lossPct", 0);
    // Structurally invalid machine (would fatal inside Machine).
    expectParseError(
        R"({"points":[{"config":{"kind":"WiSync","cores":16,
            "chips":3},"workload":{"kind":"tightloop"}}]})",
        "points[0].config.chips", 0);
    // Bad enum spellings.
    expectParseError(
        R"({"points":[{"config":{"kind":"WySink","cores":16},
            "workload":{"kind":"tightloop"}}]})",
        "points[0].config.kind", 0);
    expectParseError(
        R"({"points":[{"config":{"kind":"WiSync","cores":16},
            "workload":{"kind":"cas","kernel":"stack"}}]})",
        "points[0].workload.kernel", 0);
}

/**
 * Values that parse as well-formed JSON but would crash a Machine: a
 * zero-width bridge divides by zero, out-of-range burst knobs trip the
 * channel asserts, a backoff exponent past 63 shifts a 64-bit cycle
 * count out of range, and a bridge delay past 32 bits wraps simulated
 * time. Each must be a typed ParseError naming its field.
 */
struct CrashingField
{
    const char *name;
    const char *config; // members appended to a 4-core WiSync config
    const char *field;  // expected path under points[0].config
};

class ServiceCodecRejects : public ::testing::TestWithParam<CrashingField>
{};

INSTANTIATE_TEST_SUITE_P(
    Field, ServiceCodecRejects,
    ::testing::Values(
        CrashingField{"BridgeWidthBits",
                      R"("chips":2,"bridge":{"widthBits":0})",
                      "bridge.widthBits"},
        CrashingField{"BridgeRetryBackoffMaxExp",
                      R"("chips":2,"bridge":{"retryBackoffMaxExp":64})",
                      "bridge.retryBackoffMaxExp"},
        CrashingField{"BridgeBurstPGoodToBad",
                      R"("chips":2,"bridge":{"burst":{"pGoodToBad":2.0}})",
                      "bridge.burst.pGoodToBad"},
        CrashingField{"BridgeBurstPBadToGood",
                      R"("chips":2,"bridge":{"burst":{"pBadToGood":-0.5}})",
                      "bridge.burst.pBadToGood"},
        CrashingField{"BridgeBurstGoodLossPct",
                      R"("chips":2,"bridge":{"burst":{"goodLossPct":101}})",
                      "bridge.burst.goodLossPct"},
        CrashingField{"BridgeBurstBadLossPct",
                      R"("chips":2,"bridge":{"burst":{"badLossPct":-1}})",
                      "bridge.burst.badLossPct"},
        CrashingField{"BridgeLossPct",
                      R"("chips":2,"bridge":{"lossPct":100.5})",
                      "bridge.lossPct"},
        CrashingField{"WirelessRetryBackoffMaxExp",
                      R"("wireless":{"retryBackoffMaxExp":64})",
                      "wireless.retryBackoffMaxExp"},
        CrashingField{"WirelessMaxBackoffExp",
                      R"("wireless":{"maxBackoffExp":4000000000})",
                      "wireless.maxBackoffExp"},
        CrashingField{"WirelessBurstPGoodToBad",
                      R"("wireless":{"burst":{"pGoodToBad":2.0}})",
                      "wireless.burst.pGoodToBad"},
        CrashingField{"WirelessBurstPBadToGood",
                      R"("wireless":{"burst":{"pBadToGood":1.5}})",
                      "wireless.burst.pBadToGood"},
        CrashingField{"WirelessBurstGoodLossPct",
                      R"("wireless":{"burst":{"goodLossPct":-2}})",
                      "wireless.burst.goodLossPct"},
        CrashingField{"WirelessBurstBadLossPct",
                      R"("wireless":{"burst":{"badLossPct":250}})",
                      "wireless.burst.badLossPct"},
        // 2^32: wider bridge delays used to wrap simulated time.
        CrashingField{"BridgeLatencyCycles",
                      R"("chips":2,"bridge":{"latencyCycles":4294967296})",
                      "bridge.latencyCycles"},
        CrashingField{"BridgeAckTimeoutCycles",
                      R"("chips":2,"bridge":{"ackTimeoutCycles":4294967296})",
                      "bridge.ackTimeoutCycles"}),
    [](const auto &info) { return std::string(info.param.name); });

TEST_P(ServiceCodecRejects, OutOfRangeValueNamesItsField)
{
    const CrashingField &c = GetParam();
    expectParseError(
        std::string(R"({"points":[{"config":{"kind":"WiSync","cores":4,)") +
            c.config + R"(},"workload":{"kind":"tightloop"}}]})",
        std::string("points[0].config.") + c.field, 0);
}

/** A 4-core WiSync config JSON with @p path set to the raw @p value
 *  (nested objects opened along the dotted path). */
std::string
configWith(const std::string &path, const std::string &value)
{
    if (path == "cores")
        return R"({"kind":"WiSync","cores":)" + value + "}";
    std::string json = R"({"kind":"WiSync","cores":4,)";
    std::size_t start = 0;
    std::size_t depth = 0;
    for (std::size_t dot; (dot = path.find('.', start)) != std::string::npos;
         start = dot + 1, ++depth) {
        json += '"';
        json.append(path, start, dot - start);
        json += "\":{";
    }
    json += '"';
    json.append(path, start);
    json += "\":";
    json += value;
    json.append(depth + 1, '}');
    return json;
}

TEST(ServiceCodec, RangeLimitsThemselvesAreAccepted)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::size_t ranged = 0;
    for (const FieldInfo &f : listedFields()) {
        if (f.spec.lo == -kInf && f.spec.hi == kInf)
            continue;
        ++ranged;
        SCOPED_TRACE(f.path);
        if (!f.wire) {
            // No request can carry an off-wire field: set the member
            // directly and check validate() alone, at lo and lo - 1.
            // The off-wire ranged fields are latencies of at least one
            // cycle; another shape needs its own cases here.
            ASSERT_TRUE(f.integral && f.spec.lo >= 1.0 && f.spec.hi == kInf);
            for (const bool ok : {true, false}) {
                SCOPED_TRACE(ok ? "lo" : "lo - 1");
                auto cfg = MachineConfig::make(ConfigKind::WiSync, 8);
                withField(cfg, f.path, [&](auto &m) {
                    using T = std::remove_reference_t<decltype(m)>;
                    if constexpr (std::is_arithmetic_v<T>)
                        m = static_cast<T>(ok ? f.spec.lo : f.spec.lo - 1.0);
                });
                const auto error = cfg.validate();
                if (ok) {
                    EXPECT_FALSE(error.has_value()) << error->message;
                } else {
                    ASSERT_TRUE(error.has_value());
                    EXPECT_EQ(error->field, f.path);
                }
            }
            continue;
        }
        const auto text = [&](double v) {
            return f.integral ? wisync::service::jsonNumber(
                                    static_cast<std::uint64_t>(v))
                              : wisync::service::jsonNumber(v);
        };
        std::vector<std::pair<std::string, bool>> cases; // value, ok
        if (f.spec.lo != -kInf) {
            cases.emplace_back(text(f.spec.lo), true);
            cases.emplace_back(
                f.integral ? (f.spec.lo >= 1.0 ? text(f.spec.lo - 1.0)
                                               : std::string("-1"))
                           : text(std::nextafter(f.spec.lo, -kInf)),
                false);
        }
        if (f.spec.hi != kInf) {
            cases.emplace_back(text(f.spec.hi), true);
            cases.emplace_back(f.integral
                                   ? text(f.spec.hi + 1.0)
                                   : text(std::nextafter(f.spec.hi, kInf)),
                               false);
        }
        for (const auto &[value, ok] : cases) {
            SCOPED_TRACE(value);
            const std::string request =
                R"({"points":[{"config":)" + configWith(f.path, value) +
                R"(,"workload":{"kind":"tightloop"}}]})";
            if (!ok) {
                expectParseError(request, "points[0].config." + f.path, 0);
                continue;
            }
            auto cfg = ConfigCodec::parseRequest(request).points[0].config;
            withField(cfg, f.path, [&](auto &m) {
                using T = std::remove_reference_t<decltype(m)>;
                if constexpr (std::is_arithmetic_v<T>) {
                    EXPECT_EQ(static_cast<double>(m), std::stod(value));
                }
            });
        }
    }
    // cores, chips, issueWidth, the L1 round trip and hop latency (off
    // the wire), the exponents, the loss percentages and burst knobs of
    // both links, the bridge width.
    EXPECT_EQ(ranged, 19u);
}

// ---- MachineConfig equality + fingerprint ------------------------

TEST(ServiceFingerprint, EqualConfigsShareItDifferingConfigsDoNot)
{
    const auto base = MachineConfig::make(ConfigKind::WiSync, 16);
    auto same = MachineConfig::make(ConfigKind::WiSync, 16);
    EXPECT_EQ(base, same);
    EXPECT_EQ(base.fingerprint(), same.fingerprint());

    // Move every listed field in turn — each must break equality AND
    // move the fingerprint (the cache key may never alias distinct
    // configs through a knob the hash forgot).
    const auto fields = listedFields();
    std::set<std::string> paths;
    for (const FieldInfo &f : fields) {
        EXPECT_TRUE(paths.insert(f.path).second) << "listed twice: " << f.path;
        auto mutant = base;
        withField(mutant, f.path, [](auto &m) { nudge(m); });
        EXPECT_NE(base, mutant) << f.path;
        EXPECT_NE(base.fingerprint(), mutant.fingerprint()) << f.path;
    }
}

TEST(ServiceFingerprint, V4StreamValuesArePinned)
{
    // Pinned so that a reordered or retyped field list fails here
    // instead of silently orphaning every persisted cache record.
    EXPECT_EQ(MachineConfig::kFingerprintVersion, 4u);
    const auto cfg = MachineConfig::make(ConfigKind::WiSync, 64);
    EXPECT_EQ(cfg.fingerprint(), 0x41e29358ede27341ull);

    RequestPoint point;
    point.config = MachineConfig::make(ConfigKind::WiSync, 8);
    point.config.seed = 7;
    EXPECT_EQ(point.fingerprint(), 0x3092a1fa08b458deull);
}

TEST(ServiceFingerprint, WorkloadSpecSeparatesKindsAndParams)
{
    WorkloadSpec tl;
    WorkloadSpec cas;
    cas.kind = WorkloadSpec::Kind::Cas;
    EXPECT_NE(tl.fingerprint(), cas.fingerprint());
    WorkloadSpec tl2 = tl;
    tl2.tightLoop.iterations += 1;
    EXPECT_NE(tl.fingerprint(), tl2.fingerprint());

    RequestPoint a{MachineConfig::make(ConfigKind::WiSync, 16), tl};
    RequestPoint b{MachineConfig::make(ConfigKind::WiSync, 16), tl2};
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.fingerprint(),
              (RequestPoint{a.config, a.workload}).fingerprint());
}

/**
 * describe() may only collide where fingerprints collide: over a grid
 * varying describe-visible knobs, two points printing the same label
 * must BE the same point. Guards the bug class where a new behavioral
 * knob is added without extending describe() — sweep tables would
 * print indistinguishable rows for different machines.
 */
TEST(ServiceFingerprint, DescribeCollisionsImplyFingerprintCollisions)
{
    std::vector<MachineConfig> grid;
    for (const auto kind : {ConfigKind::Baseline, ConfigKind::WiSync}) {
        for (const auto cores : {8u, 16u}) {
            for (const auto mac : {MacKind::Brs, MacKind::Token}) {
                for (const double loss : {0.0, 1.0}) {
                    for (const auto chips : {1u, 2u}) {
                        auto cfg = MachineConfig::make(kind, cores);
                        cfg.wireless.macKind = mac;
                        cfg.wireless.lossPct = loss;
                        cfg.numChips = chips;
                        grid.push_back(cfg);
                        if (loss > 0.0) {
                            cfg.wireless.maxRetries += 2;
                            grid.push_back(cfg);
                        }
                        if (chips > 1) {
                            cfg.bridge.latencyCycles += 5;
                            grid.push_back(cfg);
                        }
                    }
                }
            }
        }
    }
    std::unordered_map<std::string, std::uint64_t> seen;
    for (const auto &cfg : grid) {
        const auto [it, fresh] =
            seen.emplace(cfg.describe(), cfg.fingerprint());
        if (!fresh) {
            EXPECT_EQ(it->second, cfg.fingerprint())
                << "describe() label '" << it->first
                << "' names two behaviorally different configs";
        }
    }
}

// ---- ResultCache -------------------------------------------------

RequestPoint
pointWithSeed(std::uint64_t seed)
{
    RequestPoint p;
    p.config = MachineConfig::make(ConfigKind::WiSync, 8);
    p.config.seed = seed;
    return p;
}

KernelResult
resultWithCycles(std::uint64_t cycles)
{
    KernelResult r;
    r.cycles = cycles;
    r.completed = true;
    return r;
}

TEST(ServiceResultCache, ExactHitsAndCounters)
{
    ResultCache cache(4);
    const auto p1 = pointWithSeed(1);
    EXPECT_EQ(cache.lookup(p1), nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.insert(p1, resultWithCycles(123));
    const auto *hit = cache.lookup(p1);
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(bitIdentical(*hit, resultWithCycles(123)));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);

    // Equality is on the whole point: same config, different
    // workload is a different key.
    auto p2 = p1;
    p2.workload.tightLoop.iterations += 1;
    EXPECT_EQ(cache.lookup(p2), nullptr);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().collisions, 0u);
}

TEST(ServiceResultCache, LruEvictionRespectsRecency)
{
    ResultCache cache(2);
    const auto pa = pointWithSeed(10);
    const auto pb = pointWithSeed(11);
    const auto pc = pointWithSeed(12);
    cache.insert(pa, resultWithCycles(1));
    cache.insert(pb, resultWithCycles(2));
    // Touch A so B is the LRU entry when C arrives.
    ASSERT_NE(cache.lookup(pa), nullptr);
    cache.insert(pc, resultWithCycles(3));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.lookup(pb), nullptr) << "LRU entry must go first";
    EXPECT_NE(cache.lookup(pa), nullptr);
    EXPECT_NE(cache.lookup(pc), nullptr);
}

TEST(ServiceResultCache, CapacityZeroDisablesStorage)
{
    ResultCache cache(0);
    const auto p = pointWithSeed(7);
    cache.insert(p, resultWithCycles(9));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.lookup(p), nullptr);
    EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ServiceResultCache, ClearDropsEntriesKeepsCounters)
{
    ResultCache cache(4);
    const auto p = pointWithSeed(3);
    cache.insert(p, resultWithCycles(5));
    ASSERT_NE(cache.lookup(p), nullptr);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.lookup(p), nullptr);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
}

// ---- ShardPlanner ------------------------------------------------

/** @p n points of equal cost (they differ only in seed). */
SweepRequest
uniformRequest(std::size_t n)
{
    SweepRequest request;
    for (std::size_t i = 0; i < n; ++i) {
        RequestPoint p;
        p.config = MachineConfig::make(ConfigKind::WiSync, 16);
        p.config.seed = i;
        request.points.push_back(p);
    }
    return request;
}

/** On a uniform-cost grid the cost plan is the strided split: point
 *  i lands on shard i mod k. */
TEST(ServiceShardPlan, StridedShardsAreDisjointAndCover)
{
    for (const std::size_t points : {0u, 1u, 5u, 8u, 13u}) {
        const SweepRequest request = uniformRequest(points);
        for (const unsigned k : {1u, 2u, 3u, 4u}) {
            std::set<std::size_t> all;
            for (unsigned s = 0; s < k; ++s) {
                const auto idx = ShardPlanner::planByCost(request, s, k);
                for (std::size_t j = 0; j < idx.size(); ++j) {
                    EXPECT_EQ(idx[j], s + j * k) << "strided contract";
                    EXPECT_TRUE(all.insert(idx[j]).second)
                        << "shards must be disjoint";
                }
            }
            EXPECT_EQ(all.size(), points) << "shards must cover";
        }
    }
}

TEST(ServiceShardPlan, MergeByIndexReassemblesSerialOrder)
{
    const std::size_t n = 11;
    const SweepRequest request = uniformRequest(n);
    std::vector<int> merged(n, -1);
    for (const unsigned s : {2u, 0u, 1u}) { // out-of-order completion
        const auto idx = ShardPlanner::planByCost(request, s, 3);
        std::vector<int> part;
        for (const auto i : idx)
            part.push_back(static_cast<int>(i) * 10);
        ShardPlanner::mergeByIndex(merged, idx, std::move(part));
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(merged[i], static_cast<int>(i) * 10);
}

// ---- ParallelSweep captured-error mode ---------------------------

wisync::workloads::KernelResult
tinyTightLoop(Machine &m)
{
    wisync::workloads::TightLoopParams params;
    params.iterations = 2;
    return wisync::workloads::runTightLoopOn(m, params);
}

TEST(ServiceCapturedErrors, RunStaysBatchFatalRunCapturedDoesNot)
{
    for (const unsigned threads : {1u, 4u}) {
        ParallelSweep sweep;
        for (int i = 0; i < 4; ++i)
            sweep.add(MachineConfig::make(ConfigKind::WiSync, 8),
                      tinyTightLoop);
        sweep.add(MachineConfig::make(ConfigKind::WiSync, 8),
                  [](Machine &) -> KernelResult {
                      throw std::runtime_error("point 4 livelocked");
                  });

        // Bench path: first body exception aborts the batch.
        EXPECT_THROW(sweep.run(threads), std::runtime_error);

        // Service path: the failure is a typed per-point outcome and
        // every healthy point still matches the clean serial run.
        const auto outcomes = sweep.runCaptured(threads);
        ASSERT_EQ(outcomes.size(), 5u);
        EXPECT_FALSE(outcomes[4].ok);
        EXPECT_EQ(outcomes[4].error, "point 4 livelocked");

        ParallelSweep clean;
        for (int i = 0; i < 4; ++i)
            clean.add(MachineConfig::make(ConfigKind::WiSync, 8),
                      tinyTightLoop);
        const auto expect = clean.run(1);
        for (int i = 0; i < 4; ++i) {
            EXPECT_TRUE(outcomes[i].ok);
            EXPECT_TRUE(bitIdentical(outcomes[i].result, expect[i]))
                << "threads " << threads << " point " << i;
        }
    }
}

TEST(ServiceCapturedErrors, OutcomeObserverSeesFailuresResultObserverDoesNot)
{
    ParallelSweep sweep;
    sweep.add(MachineConfig::make(ConfigKind::Baseline, 8),
              tinyTightLoop);
    sweep.add(MachineConfig::make(ConfigKind::Baseline, 8),
              [](Machine &) -> KernelResult {
                  throw std::runtime_error("boom");
              });

    std::mutex mu;
    std::vector<std::pair<std::size_t, bool>> outcomeSeen;
    sweep.onOutcomeComplete(
        [&](std::size_t i, const wisync::harness::PointOutcome &o) {
            std::lock_guard<std::mutex> lock(mu);
            outcomeSeen.emplace_back(i, o.ok);
        });
    const auto outcomes = sweep.runCaptured(2);
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_EQ(outcomeSeen.size(), 2u);
    for (const auto &[i, ok] : outcomeSeen)
        EXPECT_EQ(ok, i == 0);
}

// ---- SweepService ------------------------------------------------

/** A small duplicate-heavy request: 8 points, 3 duplicates. */
SweepRequest
duplicateHeavyRequest()
{
    return ConfigCodec::parseRequest(R"({"points":[
        {"config":{"kind":"WiSync","cores":8},
         "workload":{"kind":"tightloop","iterations":5}},
        {"config":{"kind":"Baseline","cores":8},
         "workload":{"kind":"tightloop","iterations":5}},
        {"config":{"kind":"WiSync","cores":8},
         "workload":{"kind":"tightloop","iterations":5}},
        {"config":{"kind":"WiSync","cores":8,
                   "wireless":{"mac":"Token"}},
         "workload":{"kind":"tightloop","iterations":5}},
        {"config":{"kind":"Baseline","cores":8},
         "workload":{"kind":"tightloop","iterations":5}},
        {"config":{"kind":"WiSync","cores":8},
         "workload":{"kind":"cas","kernel":"add","duration":2000}},
        {"config":{"kind":"WiSync","cores":8},
         "workload":{"kind":"tightloop","iterations":5}},
        {"config":{"kind":"WiSync","cores":16},
         "workload":{"kind":"tightloop","iterations":5}}
    ]})");
}

void
expectSameOutcomes(const std::vector<ServiceOutcome> &expect,
                   const std::vector<ServiceOutcome> &got)
{
    ASSERT_EQ(expect.size(), got.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(expect[i].ok, got[i].ok) << "point " << i;
        EXPECT_TRUE(bitIdentical(expect[i].result, got[i].result))
            << "point " << i;
        EXPECT_EQ(expect[i].fingerprint, got[i].fingerprint)
            << "point " << i;
    }
}

TEST(ServiceSweepService, BatchIsByteIdenticalToSerialUncachedRun)
{
    const auto request = duplicateHeavyRequest();
    SweepService reference(0);
    const auto expect = reference.runBatch(request, 1);
    ASSERT_EQ(expect.size(), 8u);
    EXPECT_EQ(reference.lastBatch().simulated, 5u);

    for (const unsigned threads : {1u, 4u}) {
        SweepService svc(32);
        const auto got = svc.runBatch(request, threads);
        expectSameOutcomes(expect, got);
        // 3 duplicates (points 2, 4, 6) answer from the entry their
        // representative inserted — literal, counted cache hits.
        EXPECT_EQ(svc.lastBatch().points, 8u);
        EXPECT_EQ(svc.lastBatch().simulated, 5u);
        EXPECT_EQ(svc.lastBatch().cacheHits, 3u);
        EXPECT_EQ(svc.lastBatch().errors, 0u);
        EXPECT_EQ(svc.cache().stats().hits, 3u);
        EXPECT_FALSE(got[0].cacheHit);
        EXPECT_TRUE(got[2].cacheHit && got[4].cacheHit &&
                    got[6].cacheHit);

        // Warm rerun: nothing simulates, every point is a hit, bits
        // unchanged.
        const auto warm = svc.runBatch(request, threads);
        expectSameOutcomes(expect, warm);
        EXPECT_EQ(svc.lastBatch().simulated, 0u);
        EXPECT_EQ(svc.lastBatch().cacheHits, 8u);
        for (const auto &o : warm)
            EXPECT_TRUE(o.cacheHit);
    }
}

TEST(ServiceSweepService, CacheDisabledStillDedupesAndMatches)
{
    const auto request = duplicateHeavyRequest();
    SweepService reference(0);
    const auto expect = reference.runBatch(request, 1);

    SweepService svc(0);
    const auto got = svc.runBatch(request, 4);
    expectSameOutcomes(expect, got);
    EXPECT_EQ(svc.lastBatch().simulated, 5u);
    EXPECT_EQ(svc.lastBatch().cacheHits, 3u)
        << "duplicates still dedupe (copied from the representative)";
    EXPECT_EQ(svc.cache().stats().hits, 0u);
    EXPECT_EQ(svc.cache().size(), 0u);
}

TEST(ServiceSweepService, ObserverStreamsEveryPointExactlyOnce)
{
    const auto request = duplicateHeavyRequest();
    SweepService svc(32);
    std::mutex mu;
    std::vector<int> count(request.points.size(), 0);
    std::vector<ServiceOutcome> streamed(request.points.size());
    const auto got = svc.runBatch(
        request, 4, [&](std::size_t i, const ServiceOutcome &o) {
            std::lock_guard<std::mutex> lock(mu);
            count[i] += 1;
            streamed[i] = o;
        });
    for (std::size_t i = 0; i < request.points.size(); ++i) {
        EXPECT_EQ(count[i], 1) << "point " << i;
        EXPECT_TRUE(bitIdentical(streamed[i].result, got[i].result));
        EXPECT_EQ(streamed[i].cacheHit, got[i].cacheHit);
    }
}

// ---- Forced fingerprint collisions ------------------------------

TEST(ServiceResultCache, ForcedCollisionDegradesToAMissNeverAWrongResult)
{
    // A degenerate hasher maps every point to one key: the collision
    // path (same key, different point) is unreachable through real
    // 64-bit fingerprints, so force it.
    ResultCache cache(4, [](const RequestPoint &) { return 42ull; });
    const auto pa = pointWithSeed(1);
    const auto pb = pointWithSeed(2);

    cache.insert(pa, resultWithCycles(101));
    EXPECT_EQ(cache.lookup(pb), nullptr)
        << "a colliding lookup must never answer the other's result";
    EXPECT_EQ(cache.stats().collisions, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);

    // Colliding insert: last writer wins the single slot.
    cache.insert(pb, resultWithCycles(202));
    EXPECT_EQ(cache.size(), 1u);
    const auto *hit = cache.lookup(pb);
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(bitIdentical(*hit, resultWithCycles(202)));
    EXPECT_EQ(cache.lookup(pa), nullptr);
    EXPECT_EQ(cache.stats().collisions, 2u);
}

// ---- Deadlines --------------------------------------------------

TEST(ServiceDeadline, RunWorkloadThrowsTypedAtTheExactCycle)
{
    Machine machine(MachineConfig::make(ConfigKind::WiSync, 8));
    WorkloadSpec spec;
    spec.tightLoop.iterations = 100000; // far past any 500-cycle run
    spec.maxCycles = 500;
    try {
        wisync::service::runWorkload(spec, machine);
        FAIL() << "expected DeadlineExceeded";
    } catch (const DeadlineExceeded &e) {
        EXPECT_EQ(e.maxCycles(), 500u);
        EXPECT_EQ(e.atCycle(), 500u)
            << "the abort cycle is exact, not 'somewhere past'";
        EXPECT_EQ(machine.engine().now(), 500u);
        EXPECT_NE(std::string(e.what()).find("DeadlineExceeded"),
                  std::string::npos);
    }
}

TEST(ServiceDeadline, GenerousBudgetNeverPerturbsTheRun)
{
    const auto cfg = MachineConfig::make(ConfigKind::WiSync, 8);
    WorkloadSpec unlimited;
    unlimited.tightLoop.iterations = 20;
    WorkloadSpec bounded = unlimited;
    bounded.maxCycles = 1'000'000'000ull;

    Machine m1(cfg);
    Machine m2(cfg);
    const auto a = wisync::service::runWorkload(unlimited, m1);
    const auto b = wisync::service::runWorkload(bounded, m2);
    EXPECT_TRUE(bitIdentical(a, b))
        << "an unhit deadline must be invisible to the simulation";
    // The budget is still part of the point's identity (cache key).
    EXPECT_NE(unlimited.fingerprint(), bounded.fingerprint());
}

TEST(ServiceDeadline, MachineIsReusableAfterADeadlineAbort)
{
    const auto cfg = MachineConfig::make(ConfigKind::WiSync, 8);
    WorkloadSpec spec;
    spec.tightLoop.iterations = 30;

    Machine fresh(cfg);
    const auto expect = wisync::service::runWorkload(spec, fresh);

    Machine machine(cfg);
    WorkloadSpec bounded = spec;
    bounded.maxCycles = 200;
    EXPECT_THROW(wisync::service::runWorkload(bounded, machine),
                 DeadlineExceeded);
    // The deadline is disarmed on the way out and reset() restores
    // the machine: the rerun must match a never-aborted one exactly.
    machine.reset();
    const auto again = wisync::service::runWorkload(spec, machine);
    EXPECT_TRUE(bitIdentical(expect, again));
}

TEST(ServiceDeadline, DeadlinePointIsATypedIsolatedDeterministicError)
{
    SweepRequest request;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        RequestPoint p;
        p.config = MachineConfig::make(ConfigKind::WiSync, 4);
        p.config.seed = seed;
        p.workload.tightLoop.iterations = 20;
        request.points.push_back(p);
    }
    SweepService reference(0);
    const auto expect = reference.runBatch(request, 1);

    SweepRequest bounded = request;
    bounded.points[1].workload.maxCycles = 300;

    std::string first_error;
    for (const unsigned threads : {1u, 4u}) {
        SweepService svc(32);
        const auto got = svc.runBatch(bounded, threads);
        ASSERT_EQ(got.size(), 3u);
        EXPECT_TRUE(got[0].ok);
        EXPECT_TRUE(bitIdentical(got[0].result, expect[0].result));
        EXPECT_FALSE(got[1].ok);
        EXPECT_NE(got[1].error.find("DeadlineExceeded"),
                  std::string::npos);
        EXPECT_NE(got[1].error.find("maxCycles=300"), std::string::npos);
        EXPECT_NE(got[1].error.find("at cycle 300"), std::string::npos)
            << got[1].error;
        EXPECT_TRUE(got[2].ok);
        EXPECT_TRUE(bitIdentical(got[2].result, expect[2].result))
            << "a deadline abort must not perturb its neighbours";
        EXPECT_EQ(svc.lastBatch().errors, 1u);
        EXPECT_EQ(svc.cache().stats().insertions, 2u)
            << "an aborted point must never be cached";

        // The abort cycle is simulated time: identical at any thread
        // count, on every rerun.
        if (first_error.empty())
            first_error = got[1].error;
        else
            EXPECT_EQ(first_error, got[1].error);
    }
}

// ---- Cost-weighted shard planning -------------------------------

/** Alternating heavy/light grid: strided sharding with k matching
 *  the period sends every heavy point to shard 0. */
SweepRequest
stripedRequest(std::size_t n)
{
    SweepRequest request;
    for (std::size_t i = 0; i < n; ++i) {
        RequestPoint p;
        const bool heavy = (i % 2) == 0;
        p.config = MachineConfig::make(ConfigKind::WiSync,
                                       heavy ? 16 : 4);
        p.config.seed = i;
        p.workload.tightLoop.iterations = heavy ? 10000 : 1;
        request.points.push_back(p);
    }
    return request;
}

TEST(ServiceShardPlan, PlanByCostIsDisjointCoveringAndDeterministic)
{
    const auto request = stripedRequest(11);
    for (const unsigned k : {1u, 2u, 3u, 4u}) {
        std::set<std::size_t> seen;
        for (unsigned s = 0; s < k; ++s) {
            const auto idx = ShardPlanner::planByCost(request, s, k);
            EXPECT_EQ(idx, ShardPlanner::planByCost(request, s, k))
                << "the plan is a pure function of (request, s, k)";
            for (std::size_t j = 1; j < idx.size(); ++j)
                EXPECT_LT(idx[j - 1], idx[j]) << "indices ascend";
            for (const auto i : idx)
                EXPECT_TRUE(seen.insert(i).second)
                    << "index " << i << " assigned twice";
        }
        EXPECT_EQ(seen.size(), request.points.size());
    }
}

TEST(ServiceShardPlan, PlanByCostBalancesWhatStridingResonatesWith)
{
    const auto request = stripedRequest(12);
    constexpr unsigned k = 2;

    const auto load = [&](const std::vector<std::size_t> &idx) {
        std::uint64_t sum = 0;
        for (const auto i : idx)
            sum += ShardPlanner::pointCost(request.points[i]);
        return sum;
    };
    std::uint64_t max_point = 0;
    for (const auto &p : request.points)
        max_point = std::max(max_point, ShardPlanner::pointCost(p));

    std::uint64_t strided_max = 0, plan_max = 0, plan_min = ~0ull;
    for (unsigned s = 0; s < k; ++s) {
        std::vector<std::size_t> strided;
        for (std::size_t i = s; i < request.points.size(); i += k)
            strided.push_back(i);
        strided_max = std::max(strided_max, load(strided));
        const auto cost = load(ShardPlanner::planByCost(request, s, k));
        plan_max = std::max(plan_max, cost);
        plan_min = std::min(plan_min, cost);
    }
    // Strided puts all 6 heavy points on shard 0; LPT splits them 3/3.
    EXPECT_LT(plan_max, strided_max);
    EXPECT_LE(plan_max - plan_min, max_point)
        << "LPT greedy balances to within one point's cost";
}

TEST(ServiceShardPlan, PlanByCostMergesToTheSerialAnswer)
{
    const auto request = duplicateHeavyRequest();
    SweepService reference(0);
    const auto expect = reference.runBatch(request, 1);
    const std::size_t n = request.points.size();

    for (const unsigned k : {2u, 3u}) {
        std::vector<ServiceOutcome> merged(n);
        for (unsigned s = 0; s < k; ++s) {
            SweepService svc(32);
            const auto idx = ShardPlanner::planByCost(request, s, k);
            auto part = svc.runBatch(
                ShardPlanner::subRequest(request, idx), 2);
            ShardPlanner::mergeByIndex(merged, idx, std::move(part));
        }
        expectSameOutcomes(expect, merged);
    }
}

TEST(ServiceSweepService, ShardedRunMergesToTheSerialAnswer)
{
    const auto request = duplicateHeavyRequest();
    SweepService reference(0);
    const auto expect = reference.runBatch(request, 1);
    const std::size_t n = request.points.size();

    // PlanByCostMergesToTheSerialAnswer covers 2 and 3 shards.
    for (const unsigned k : {1u, 4u}) {
        std::vector<ServiceOutcome> merged(n);
        for (unsigned s = 0; s < k; ++s) {
            SweepService svc(32); // one independent process's view
            const auto idx = ShardPlanner::planByCost(request, s, k);
            auto part = svc.runBatch(
                ShardPlanner::subRequest(request, idx), 2);
            ShardPlanner::mergeByIndex(merged, idx, std::move(part));
        }
        expectSameOutcomes(expect, merged);
    }
}

} // namespace
