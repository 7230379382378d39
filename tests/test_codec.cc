/**
 * @file
 * What the service codec costs and the bytes it writes: heap
 * allocations of a request parse and of a cache-store load (gated
 * deterministically), a pin of the canonical JSON of a corpus of
 * points, and the parser's fast paths held to the general ones
 * (integer tokens to from_chars, word-at-a-time string scans to the
 * byte loop).
 */

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "core/machine_config.hh"
#include "service/cache_store.hh"
#include "service/config_codec.hh"
#include "service/json.hh"
#include "service/result_cache.hh"
#include "sim/fnv1a.hh"
#include "sim/heap_counter.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::FieldSpec;
using wisync::core::MachineConfig;
using wisync::core::Variant;
using wisync::service::CacheStore;
using wisync::service::ConfigCodec;
using wisync::service::Json;
using wisync::service::JsonError;
using wisync::service::RequestPoint;
using wisync::service::ResultCache;
using wisync::service::SweepRequest;
using wisync::service::WorkloadSpec;
using wisync::wireless::MacKind;

/** 4 kinds x 5 Table 6 variants x 4 MACs at 16 cores, alternating the
 *  two workload kinds. */
std::vector<RequestPoint>
gridCorpus()
{
    std::vector<RequestPoint> points;
    for (const auto kind :
         {ConfigKind::Baseline, ConfigKind::BaselinePlus,
          ConfigKind::WiSyncNoT, ConfigKind::WiSync}) {
        for (const auto variant :
             {Variant::Default, Variant::SlowNet, Variant::SlowNetL2,
              Variant::FastNet, Variant::SlowBmem}) {
            for (const auto mac : {MacKind::Brs, MacKind::Token,
                                   MacKind::FuzzyToken, MacKind::Adaptive}) {
                RequestPoint p;
                p.config = MachineConfig::make(kind, 16, variant);
                p.config.wireless.macKind = mac;
                if (points.size() % 2 == 1) {
                    p.workload.kind = WorkloadSpec::Kind::Cas;
                    p.workload.casKernel = wisync::workloads::CasKernel::Fifo;
                    p.workload.maxCycles = 123456;
                }
                points.push_back(p);
            }
        }
    }
    return points;
}

/** Moves every wire field off its make() default, inside its range. */
struct Bump
{
    template <typename T>
    void
    field(const char *, T &member, const FieldSpec &spec)
    {
        if (!spec.wire)
            return;
        if constexpr (std::is_same_v<T, bool>) {
            member = !member;
        } else if constexpr (std::is_same_v<T, double>) {
            member = member + 0.25 <= spec.hi ? member + 0.25 : member - 0.25;
        } else if constexpr (std::is_same_v<T, ConfigKind>) {
            member = member == ConfigKind::WiSync ? ConfigKind::WiSyncNoT
                                                  : ConfigKind::WiSync;
        } else if constexpr (std::is_same_v<T, Variant>) {
            member = member == Variant::FastNet ? Variant::SlowBmem
                                                : Variant::FastNet;
        } else if constexpr (std::is_same_v<T, MacKind>) {
            member = member == MacKind::Token ? MacKind::Adaptive
                                              : MacKind::Token;
        } else {
            member += 3;
        }
    }

    template <typename Members>
    void
    group(const char *, const FieldSpec &spec, Members &&members)
    {
        if (spec.wire)
            members();
    }
};

/** A canonical one-point request, parsed once so the codec's one-time
 *  tables exist before anything is counted. */
std::string
warmOnePointRequest()
{
    SweepRequest request;
    request.points.push_back(RequestPoint{});
    const std::string text = ConfigCodec::serializeRequest(request);
    ConfigCodec::parseRequest(text);
    return text;
}

TEST(CodecCost, OnePointRequestParseStaysUnderTwentyAllocations)
{
    const std::string text = warmOnePointRequest();
    const std::uint64_t before = wisync::sim::heapAllocs();
    const SweepRequest parsed = ConfigCodec::parseRequest(text);
    const std::uint64_t allocs = wisync::sim::heapAllocs() - before;
    ASSERT_EQ(parsed.points.size(), 1u);
    EXPECT_LE(allocs, 20u);
}

TEST(CodecCost, StoreLoadStaysUnderFifteenAllocationsPerRecord)
{
    warmOnePointRequest();
    constexpr std::size_t kRecords = 60;
    ResultCache written(kRecords);
    for (std::size_t i = 0; i < kRecords; ++i) {
        RequestPoint p;
        p.config.seed = 1000 + i;
        wisync::workloads::KernelResult r;
        r.cycles = i;
        written.insert(p, r);
    }
    const std::string path = ::testing::TempDir() + "wisync_codec_cost_" +
                             std::to_string(::getpid()) + ".bin";
    ASSERT_TRUE(CacheStore::save(written, path));

    ResultCache loaded(kRecords);
    const std::uint64_t before = wisync::sim::heapAllocs();
    const CacheStore::LoadStats stats = CacheStore::load(loaded, path);
    const std::uint64_t allocs = wisync::sim::heapAllocs() - before;
    std::remove(path.c_str());
    ASSERT_EQ(stats.loaded, kRecords);
    EXPECT_LE(allocs, 15u * kRecords);
}

TEST(CodecCanonical, CorpusBytesArePinned)
{
    std::vector<RequestPoint> points = gridCorpus();
    RequestPoint sink;
    sink.config = MachineConfig::make(ConfigKind::Baseline, 16);
    Bump bump;
    wisync::core::forEachField(sink.config, bump);
    points.push_back(sink);

    wisync::sim::Fnv1a f;
    for (const RequestPoint &p : points) {
        const std::string text = ConfigCodec::serialize(p);
        f.bytes(text.data(), text.size());
        f.byte('\n');
    }
    // FNV-1a of the corpus's canonical text: a change here changes
    // every cache key, store record and result digest.
    EXPECT_EQ(f.h, 0x760fc636444e66ccull);

    // The grid points are valid configs: canonical text round-trips.
    for (std::size_t i = 0; i + 1 < points.size(); ++i) {
        SweepRequest one;
        one.points.push_back(points[i]);
        const std::string text = ConfigCodec::serializeRequest(one);
        EXPECT_EQ(ConfigCodec::serializeRequest(ConfigCodec::parseRequest(text)),
                  text);
    }
}

TEST(CodecJson, IntegerTokensReadAsFromCharsReadsThem)
{
    const char *tokens[] = {
        "0",  "-0", "7", "-7", "0042", "9007199254740993",
        "123456789012345678", "-123456789012345678",
        "999999999999999999", "1234567890123456789",
        "18446744073709551615"};
    for (const char *t : tokens) {
        const std::string token = t;
        double want = 0.0;
        std::from_chars(token.data(), token.data() + token.size(), want);
        const Json v = Json::parse(token);
        ASSERT_TRUE(v.isNumber()) << token;
        EXPECT_EQ(v.rawNumber(), token);
        EXPECT_EQ(std::signbit(v.number()), std::signbit(want)) << token;
        EXPECT_EQ(v.number(), want) << token;
    }
}

TEST(CodecJson, StringScansFindEverySpecialByteAtEveryOffset)
{
    // Each special byte at each position of the first 8-byte words.
    for (std::size_t at = 0; at < 24; ++at) {
        const std::string run(at, 'a');
        EXPECT_EQ(Json::parse("\"" + run + "\"").str(), run);
        EXPECT_EQ(Json::parse("\"" + run + "\\n" + run + "\"").str(),
                  run + "\n" + run);
        EXPECT_EQ(Json::parse("{\"" + run + "\\u0041\":1}")
                      .object()[0]
                      .first,
                  run + "A");
        try {
            Json::parse("\"" + run + '\x01' + "zz\"");
            ADD_FAILURE() << "control byte accepted at " << at;
        } catch (const JsonError &e) {
            EXPECT_EQ(e.offset(), at + 2);
        }
        try {
            Json::parse("\"" + run);
            ADD_FAILURE() << "unterminated string accepted at " << at;
        } catch (const JsonError &e) {
            EXPECT_EQ(e.offset(), at + 1);
        }
        // Bytes above 0x7F are plain string bytes.
        const std::string high = run + "\xC3\xA9" + run;
        EXPECT_EQ(Json::parse("\"" + high + "\"").str(), high);
    }
}

TEST(CodecJson, NestingStopsAtTheDepthLimit)
{
    // Arrays and objects count alike; the deepest value parses.
    auto nest = [](std::size_t depth) {
        std::string text;
        for (std::size_t i = 0; i < depth; ++i)
            text += i % 2 == 0 ? "[" : "{\"k\":";
        text += '1';
        for (std::size_t i = depth; i-- > 0;)
            text += i % 2 == 0 ? ']' : '}';
        return text;
    };
    const Json deep = Json::parse(nest(Json::kMaxDepth));
    const Json *v = &deep;
    std::size_t depth = 0;
    for (; v->isArray() || v->isObject(); ++depth)
        v = v->isArray() ? &v->array()[0] : &v->object()[0].second;
    EXPECT_EQ(depth, Json::kMaxDepth);
    EXPECT_EQ(v->number(), 1.0);
    try {
        Json::parse(std::string(Json::kMaxDepth + 1, '['));
        ADD_FAILURE() << "nesting past the limit accepted";
    } catch (const JsonError &e) {
        EXPECT_EQ(e.offset(), Json::kMaxDepth);
        EXPECT_NE(std::string(e.what()).find("deeper than 256 levels"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
