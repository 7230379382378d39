/**
 * @file
 * Persistence and daemon tests: CacheStore's durable file format
 * (atomic save, record-by-record salvage of bit-flipped / truncated /
 * version-mismatched files, streaming appender), and the Daemon serve
 * loop's containment contract (per-line errors, bounded request
 * size, warm cache across lines and across daemon lifetimes, forced
 * fingerprint-collision warnings).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <type_traits>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/machine_config.hh"
#include "service/cache_store.hh"
#include "service/config_codec.hh"
#include "service/daemon.hh"
#include "service/result_cache.hh"
#include "service/sweep_service.hh"
#include "workloads/kernel_result.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::MachineConfig;
using wisync::service::CacheStore;
using wisync::service::ConfigCodec;
using wisync::service::Daemon;
using wisync::service::DaemonOptions;
using wisync::service::RequestPoint;
using wisync::service::ResultCache;
using wisync::service::ServiceOutcome;
using wisync::service::SweepRequest;
using wisync::service::SweepService;
using wisync::service::writeFileAtomic;
using wisync::workloads::bitIdentical;
using wisync::workloads::CounterKind;
using wisync::workloads::forEachCounter;
using wisync::workloads::KernelResult;
using wisync::workloads::toCounterWords;

// ---- helpers ----------------------------------------------------

/** A unique-per-process scratch path, removed on scope exit. */
struct TempFile
{
    explicit TempFile(const std::string &stem)
        : path(::testing::TempDir() + "wisync_" + stem + "_" +
               std::to_string(static_cast<long long>(::getpid())) +
               ".bin")
    {
        std::remove(path.c_str());
    }
    ~TempFile()
    {
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }
    std::string path;
};

std::string
readRaw(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

void
writeRaw(const std::string &path, const std::string &data)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(data.data(), static_cast<std::streamsize>(data.size()));
    ASSERT_TRUE(bool(f)) << "cannot write " << path;
}

bool
fileExists(const std::string &path)
{
    return bool(std::ifstream(path));
}

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

/** A small real request (distinct seeds, no duplicates). */
SweepRequest
smallRequest(std::uint64_t seed_base = 1, std::size_t n = 3)
{
    SweepRequest request;
    for (std::size_t i = 0; i < n; ++i) {
        RequestPoint p;
        p.config = MachineConfig::make(ConfigKind::WiSync, 4);
        p.config.seed = seed_base + i;
        p.workload.tightLoop.iterations = 2;
        request.points.push_back(p);
    }
    return request;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream ss(text);
    for (std::string line; std::getline(ss, line);)
        lines.push_back(line);
    return lines;
}

// Independent re-implementation of the record framing, pinning the
// on-disk constants: these must never drift without a formatVersion
// bump, or old files would mis-parse instead of being rejected.
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

std::string
frameRecord(const std::string &payload)
{
    const auto putU32 = [](std::string &out, std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    };
    const auto putU64 = [](std::string &out, std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    };
    std::string out;
    const auto len = static_cast<std::uint32_t>(payload.size());
    putU32(out, len);
    putU32(out, (len * 0x9E3779B9u) ^ 0x57534352u);
    putU64(out, fnv1a(payload));
    out += payload;
    return out;
}

// ---- Persist: format + salvage ----------------------------------

TEST(Persist, OnDiskFramingConstantsAreStable)
{
    const std::string header = CacheStore::encodeHeader();
    ASSERT_EQ(header.size(), 16u);
    EXPECT_EQ(header.substr(0, 8), "WSCSTORE");
    // A change to the fingerprint streams or the result words must
    // show up here, not as silently orphaned cache files.
    EXPECT_EQ(CacheStore::formatVersion(), 0xd11cfc60d98fbbc6ull);

    const std::string record =
        CacheStore::encodeRecord(pointWithSeed(1), resultWithCycles(7));
    ASSERT_GT(record.size(), 16u);
    EXPECT_EQ(record, frameRecord(record.substr(16)));
}

TEST(Persist, SaveLoadRoundTripPreservesContentsAndRecency)
{
    TempFile file("roundtrip");
    const auto pa = pointWithSeed(1);
    const auto pb = pointWithSeed(2);
    const auto pc = pointWithSeed(3);

    ResultCache cache(3);
    cache.insert(pa, resultWithCycles(101));
    cache.insert(pb, resultWithCycles(102));
    cache.insert(pc, resultWithCycles(103));
    cache.lookup(pa); // refresh: b is now the coldest entry

    std::string error;
    ASSERT_TRUE(CacheStore::save(cache, file.path, &error)) << error;

    ResultCache loaded(3);
    const auto stats = CacheStore::load(loaded, file.path);
    EXPECT_TRUE(stats.fileFound);
    EXPECT_TRUE(stats.headerOk);
    EXPECT_FALSE(stats.versionMismatch);
    EXPECT_EQ(stats.loaded, 3u);
    EXPECT_EQ(stats.discarded, 0u);
    EXPECT_TRUE(stats.error.empty()) << stats.error;
    EXPECT_EQ(loaded.size(), 3u);

    // Recency replayed, not just contents: the next eviction must hit
    // b (the pre-save LRU), exactly as it would have in the original.
    loaded.insert(pointWithSeed(4), resultWithCycles(104));
    EXPECT_EQ(loaded.lookup(pb), nullptr);
    const auto *hit = loaded.lookup(pa);
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(bitIdentical(*hit, resultWithCycles(101)));
    ASSERT_NE(loaded.lookup(pc), nullptr);
}

TEST(Persist, VersionMismatchRefusesTheWholeFile)
{
    // A corrupted version word, and the version of files written under
    // the v1 config fingerprint stream.
    const std::string good = CacheStore::encodeHeader();
    std::string v1 = good;
    for (int i = 0; i < 8; ++i)
        v1[8 + i] = static_cast<char>((0x0198f8b7fb81b551ull >> (8 * i)) &
                                      0xFF);
    std::string flipped = good;
    flipped[8] = static_cast<char>(flipped[8] ^ 0x5A);

    for (const std::string &header : {flipped, v1}) {
        TempFile file("version");
        writeRaw(file.path,
                 header + CacheStore::encodeRecord(pointWithSeed(1),
                                                   resultWithCycles(1)));
        ResultCache cache(4);
        const auto stats = CacheStore::load(cache, file.path);
        EXPECT_TRUE(stats.fileFound);
        EXPECT_TRUE(stats.headerOk);
        EXPECT_TRUE(stats.versionMismatch);
        EXPECT_EQ(stats.loaded, 0u);
        EXPECT_EQ(cache.size(), 0u);
    }
}

/** Moves the counter at list position @p target off its value. */
KernelResult
nudgeCounter(KernelResult r, std::size_t target)
{
    std::size_t i = 0;
    forEachCounter(r, [&]<typename T>(const char *, T &m, CounterKind) {
        if (i++ != target)
            return;
        if constexpr (std::is_same_v<T, bool>)
            m = !m;
        else
            m += 1;
    });
    return r;
}

TEST(Persist, EveryCounterIsComparedServedAndPersisted)
{
    TempFile file("counters");
    const KernelResult base = resultWithCycles(5);
    std::vector<std::pair<std::string, CounterKind>> counters;
    forEachCounter(base, [&](const char *name, const auto &, CounterKind k) {
        counters.emplace_back(name, k);
    });
    ASSERT_EQ(counters.size(), CacheStore::kResultWords);

    std::string data = CacheStore::encodeHeader();
    std::vector<KernelResult> mutants;
    for (std::size_t i = 0; i < counters.size(); ++i) {
        SCOPED_TRACE(counters[i].first);
        const KernelResult mutant = nudgeCounter(base, i);
        const bool simulated = counters[i].second == CounterKind::Simulated;
        EXPECT_EQ(bitIdentical(base, mutant), !simulated);
        EXPECT_EQ(ConfigCodec::serializeResult(base) ==
                      ConfigCodec::serializeResult(mutant),
                  !simulated);
        EXPECT_EQ(ConfigCodec::serializeResult(base).find(
                      "\"" + counters[i].first + "\":") != std::string::npos,
                  simulated);
        data += CacheStore::encodeRecord(pointWithSeed(100 + i), mutant);
        mutants.push_back(mutant);
    }
    writeRaw(file.path, data);

    ResultCache cache(counters.size());
    const auto stats = CacheStore::load(cache, file.path);
    ASSERT_EQ(stats.loaded, counters.size());
    for (std::size_t i = 0; i < counters.size(); ++i) {
        SCOPED_TRACE(counters[i].first);
        const KernelResult *back = cache.lookup(pointWithSeed(100 + i));
        ASSERT_NE(back, nullptr);
        EXPECT_EQ(toCounterWords(*back), toCounterWords(mutants[i]));
    }
}

TEST(Persist, BadMagicLoadsNothing)
{
    TempFile file("magic");
    std::string data = CacheStore::encodeHeader() +
                       CacheStore::encodeRecord(pointWithSeed(1),
                                                resultWithCycles(1));
    data[0] = static_cast<char>(data[0] ^ 0xFF);
    writeRaw(file.path, data);

    ResultCache cache(4);
    const auto stats = CacheStore::load(cache, file.path);
    EXPECT_TRUE(stats.fileFound);
    EXPECT_FALSE(stats.headerOk);
    EXPECT_EQ(stats.loaded, 0u);
    EXPECT_FALSE(stats.error.empty());
}

TEST(Persist, TruncatedTailSalvagesThePrefix)
{
    TempFile file("truncate");
    const std::string header = CacheStore::encodeHeader();
    const std::string r1 =
        CacheStore::encodeRecord(pointWithSeed(1), resultWithCycles(1));
    const std::string r2 =
        CacheStore::encodeRecord(pointWithSeed(2), resultWithCycles(2));
    const std::string r3 =
        CacheStore::encodeRecord(pointWithSeed(3), resultWithCycles(3));

    // Cut inside r3's record header (a killed appender's tail).
    writeRaw(file.path, header + r1 + r2 + r3.substr(0, 7));
    ResultCache cache(8);
    auto stats = CacheStore::load(cache, file.path);
    EXPECT_EQ(stats.loaded, 2u);
    EXPECT_EQ(stats.discarded, 1u);
    EXPECT_EQ(cache.size(), 2u);

    // Cut inside r3's payload: framing says the record runs past EOF.
    writeRaw(file.path, header + r1 + r2 + r3.substr(0, r3.size() / 2));
    ResultCache cache2(8);
    stats = CacheStore::load(cache2, file.path);
    EXPECT_EQ(stats.loaded, 2u);
    EXPECT_EQ(stats.discarded, 1u);
    ASSERT_NE(cache2.lookup(pointWithSeed(2)), nullptr);
    EXPECT_EQ(cache2.lookup(pointWithSeed(3)), nullptr);
}

TEST(Persist, BitFlipIsolatesOneRecordAndSalvageContinues)
{
    TempFile file("bitflip");
    const std::string header = CacheStore::encodeHeader();
    const std::string r1 =
        CacheStore::encodeRecord(pointWithSeed(1), resultWithCycles(1));
    const std::string r2 =
        CacheStore::encodeRecord(pointWithSeed(2), resultWithCycles(2));
    const std::string r3 =
        CacheStore::encodeRecord(pointWithSeed(3), resultWithCycles(3));
    std::string data = header + r1 + r2 + r3;
    // Flip one payload byte of r2 (past its 16-byte record header):
    // the checksum must reject r2 alone while r3 still loads.
    data[header.size() + r1.size() + 16 + 5] ^= 0x10;
    writeRaw(file.path, data);

    ResultCache cache(8);
    const auto stats = CacheStore::load(cache, file.path);
    EXPECT_EQ(stats.loaded, 2u);
    EXPECT_EQ(stats.discarded, 1u);
    EXPECT_NE(stats.error.find("checksum"), std::string::npos)
        << stats.error;
    ASSERT_NE(cache.lookup(pointWithSeed(1)), nullptr);
    EXPECT_EQ(cache.lookup(pointWithSeed(2)), nullptr);
    ASSERT_NE(cache.lookup(pointWithSeed(3)), nullptr);
}

TEST(Persist, FramingCorruptionAbandonsTheRest)
{
    TempFile file("framing");
    const std::string header = CacheStore::encodeHeader();
    const std::string r1 =
        CacheStore::encodeRecord(pointWithSeed(1), resultWithCycles(1));
    const std::string r2 =
        CacheStore::encodeRecord(pointWithSeed(2), resultWithCycles(2));
    std::string data = header + r1 + r2;
    // Corrupt r2's length field: the frame check fails, the length
    // cannot be trusted, so everything from r2 on is one opaque blob.
    data[header.size() + r1.size()] ^= 0x01;
    writeRaw(file.path, data);

    ResultCache cache(8);
    const auto stats = CacheStore::load(cache, file.path);
    EXPECT_EQ(stats.loaded, 1u);
    EXPECT_EQ(stats.discarded, 1u);
    EXPECT_NE(stats.error.find("framing"), std::string::npos)
        << stats.error;
}

TEST(Persist, StoredFingerprintMustMatchTheRecomputedOne)
{
    TempFile file("fpmismatch");
    const std::string record =
        CacheStore::encodeRecord(pointWithSeed(1), resultWithCycles(5));
    // Corrupt the stored fingerprint but re-frame so length and
    // checksum are valid: only the semantic cross-check can catch it.
    std::string payload = record.substr(16);
    payload[0] = static_cast<char>(payload[0] ^ 0x01);
    writeRaw(file.path, CacheStore::encodeHeader() + frameRecord(payload));

    ResultCache cache(4);
    const auto stats = CacheStore::load(cache, file.path);
    EXPECT_EQ(stats.loaded, 0u);
    EXPECT_EQ(stats.discarded, 1u);
    EXPECT_NE(stats.error.find("fingerprint mismatch"), std::string::npos)
        << stats.error;
}

TEST(Persist, AppenderStreamsLoadableRecordsAcrossReopens)
{
    TempFile file("appender");
    {
        CacheStore::Appender ap;
        std::string error;
        ASSERT_TRUE(ap.open(file.path, &error)) << error;
        EXPECT_TRUE(ap.append(pointWithSeed(1), resultWithCycles(1)));
        EXPECT_TRUE(ap.append(pointWithSeed(2), resultWithCycles(2)));
    }
    {
        // Reopen appends after the existing records — the header must
        // not be written twice.
        CacheStore::Appender ap;
        ASSERT_TRUE(ap.open(file.path));
        EXPECT_TRUE(ap.append(pointWithSeed(3), resultWithCycles(3)));
    }
    ResultCache cache(8);
    auto stats = CacheStore::load(cache, file.path);
    EXPECT_EQ(stats.loaded, 3u);
    EXPECT_EQ(stats.discarded, 0u);

    // A kill mid-append leaves a partial record: salvage keeps the
    // three whole ones and counts exactly one casualty.
    writeRaw(file.path, readRaw(file.path) + "\x30\x00\x00");
    ResultCache cache2(8);
    stats = CacheStore::load(cache2, file.path);
    EXPECT_EQ(stats.loaded, 3u);
    EXPECT_EQ(stats.discarded, 1u);
}

TEST(Persist, WarmFromDiskBatchIsByteIdenticalAndFullyCached)
{
    TempFile file("warm");
    const auto request = smallRequest();
    SweepService reference(0);
    const auto expect = reference.runBatch(request, 1);

    {
        SweepService svc(32);
        svc.runBatch(request, 2);
        std::string error;
        ASSERT_TRUE(CacheStore::save(svc.cache(), file.path, &error))
            << error;
    }

    SweepService warm(32);
    const auto stats = CacheStore::load(warm.cache(), file.path);
    EXPECT_EQ(stats.loaded, request.points.size());
    const auto got = warm.runBatch(request, 2);
    EXPECT_EQ(warm.lastBatch().simulated, 0u);
    EXPECT_EQ(warm.lastBatch().cacheHits, request.points.size());
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].ok);
        EXPECT_TRUE(got[i].cacheHit);
        EXPECT_TRUE(bitIdentical(got[i].result, expect[i].result))
            << "point " << i;
        EXPECT_EQ(got[i].fingerprint, expect[i].fingerprint);
    }
}

TEST(Persist, WriteFileAtomicReplacesWholeFilesAndFailsCleanly)
{
    TempFile file("atomic");
    std::string error;
    ASSERT_TRUE(writeFileAtomic(file.path, "hello", &error)) << error;
    EXPECT_EQ(readRaw(file.path), "hello");
    ASSERT_TRUE(writeFileAtomic(file.path, "world", &error)) << error;
    EXPECT_EQ(readRaw(file.path), "world");
    EXPECT_FALSE(fileExists(file.path + ".tmp"));

    EXPECT_FALSE(writeFileAtomic(
        "/nonexistent-wisync-dir/impossible.bin", "x", &error));
    EXPECT_FALSE(error.empty());
}

// ---- Daemon: the serve loop -------------------------------------

TEST(Daemon, ServeAnswersEveryLineAndStaysWarmAcrossLines)
{
    DaemonOptions opt;
    opt.threads = 2;
    Daemon daemon(opt);
    const std::string line =
        ConfigCodec::serializeRequest(smallRequest());
    std::istringstream in(line + "\n" + line + "\n");
    std::ostringstream out;
    EXPECT_EQ(daemon.serve(in, out), 2u);

    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"results\""), std::string::npos);
    // The daemon owns one SweepService: the second request answers
    // entirely from the cache the first one warmed.
    EXPECT_NE(lines[1].find("\"simulated\":0"), std::string::npos);
    EXPECT_EQ(daemon.service().lastBatch().cacheHits, 3u);
}

TEST(Daemon, BadLineAnswersAnErrorAndTheLoopContinues)
{
    DaemonOptions opt;
    opt.threads = 1;
    Daemon daemon(opt);
    const std::string line =
        ConfigCodec::serializeRequest(smallRequest());
    std::istringstream in(
        "this is not json\n"
        R"({"points":[{"config":{"kind":"Nope","cores":4},)"
        R"("workload":{"kind":"tightloop"}}]})"
        "\n" +
        line + "\n");
    std::ostringstream out;
    EXPECT_EQ(daemon.serve(in, out), 3u);

    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("\"error\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"error\""), std::string::npos);
    EXPECT_NE(lines[1].find("points[0]"), std::string::npos)
        << "a strictness error must name the offending field path";
    EXPECT_NE(lines[2].find("\"results\""), std::string::npos);
}

TEST(Daemon, ConfigsThatWouldCrashAMachineAnswerErrors)
{
    // Well-formed requests whose values used to kill the process
    // (SIGFPE, a channel assert, an out-of-range shift) inside Machine.
    const char *bad_configs[] = {
        R"("chips":2,"bridge":{"widthBits":0})",
        R"("wireless":{"burst":{"pGoodToBad":2.0}})",
        R"("wireless":{"retryBackoffMaxExp":64})",
        R"("chips":2,"bridge":{"retryBackoffMaxExp":64})",
        // 2^32 bridge delays used to wrap simulated time.
        R"("chips":2,"bridge":{"latencyCycles":4294967296})",
        R"("chips":2,"bridge":{"ackTimeoutCycles":4294967296})",
    };
    std::string input;
    for (const char *cfg : bad_configs)
        input += std::string(R"({"points":[{"config":{"kind":"WiSync",)"
                             R"("cores":4,)") +
                 cfg + R"(},"workload":{"kind":"tightloop"}}]})" + "\n";
    input += ConfigCodec::serializeRequest(smallRequest()) + "\n";

    DaemonOptions opt;
    opt.threads = 1;
    Daemon daemon(opt);
    std::istringstream in(input);
    std::ostringstream out;
    EXPECT_EQ(daemon.serve(in, out), std::size(bad_configs) + 1);

    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), std::size(bad_configs) + 1);
    for (std::size_t i = 0; i < std::size(bad_configs); ++i) {
        SCOPED_TRACE(bad_configs[i]);
        EXPECT_EQ(lines[i].rfind(R"({"error":)", 0), 0u) << lines[i];
        EXPECT_NE(lines[i].find("points[0].config."), std::string::npos);
    }
    EXPECT_NE(lines.back().find("\"results\""), std::string::npos);
}

TEST(Daemon, OversizedLineIsRejectedBeforeParsingAndTheLoopContinues)
{
    const std::string line =
        ConfigCodec::serializeRequest(smallRequest());
    DaemonOptions opt;
    opt.threads = 1;
    opt.maxRequestBytes = line.size() + 1;
    Daemon daemon(opt);

    const std::string oversized(line.size() + 100, 'x');
    std::istringstream in(oversized + "\n" + line + "\n");
    std::ostringstream out;
    EXPECT_EQ(daemon.serve(in, out), 2u);

    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"error\""), std::string::npos);
    EXPECT_NE(lines[0].find("exceeds"), std::string::npos);
    EXPECT_NE(lines[1].find("\"results\""), std::string::npos);
}

TEST(Daemon, EmptyLinesAreIgnored)
{
    DaemonOptions opt;
    opt.threads = 1;
    Daemon daemon(opt);
    const std::string line =
        ConfigCodec::serializeRequest(smallRequest(1, 1));
    std::istringstream in("\n\n" + line + "\n\n");
    std::ostringstream out;
    EXPECT_EQ(daemon.serve(in, out), 1u);
    EXPECT_EQ(splitLines(out.str()).size(), 1u);
}

TEST(Daemon, ForcedCollisionWarnsAndStaysExact)
{
    DaemonOptions opt;
    opt.threads = 1;
    // Degenerate hasher: every point maps to the same cache key, so
    // the second (different) point must take the collision path.
    opt.hasherOverride = [](const RequestPoint &) { return 42ull; };
    Daemon daemon(opt);
    std::vector<std::string> warnings;
    daemon.setWarningSink(
        [&](const std::string &message) { warnings.push_back(message); });

    const std::string line1 =
        ConfigCodec::serializeRequest(smallRequest(1, 1));
    const std::string line2 =
        ConfigCodec::serializeRequest(smallRequest(2, 1));
    std::istringstream in(line1 + "\n" + line2 + "\n");
    std::ostringstream out;
    EXPECT_EQ(daemon.serve(in, out), 2u);

    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("collision"), std::string::npos);

    // Exactness beats hash trust: the colliding point degrades to a
    // counted miss and simulates — never answers the other's result.
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[1].find("\"collisions\":1"), std::string::npos);
    EXPECT_NE(lines[1].find("\"errors\":0"), std::string::npos);
    EXPECT_NE(lines[1].find("\"simulated\":1"), std::string::npos);
}

TEST(Daemon, OneShotHandleRequestReportsSuccess)
{
    DaemonOptions opt;
    opt.threads = 1;
    Daemon daemon(opt);
    bool ok = false;
    const std::string response = daemon.handleRequest(
        ConfigCodec::serializeRequest(smallRequest(1, 1)), &ok);
    EXPECT_TRUE(ok);
    EXPECT_NE(response.find("\"results\""), std::string::npos);

    const std::string bad = daemon.handleRequest("garbage", &ok);
    EXPECT_FALSE(ok);
    EXPECT_NE(bad.find("\"error\""), std::string::npos);
}

TEST(Daemon, CacheFileWarmsAcrossDaemonLifetimes)
{
    TempFile file("daemon_cache");
    const std::string line =
        ConfigCodec::serializeRequest(smallRequest());
    DaemonOptions opt;
    opt.threads = 1;
    opt.cacheFile = file.path;

    {
        Daemon daemon(opt);
        std::string error;
        const auto stats = daemon.start(&error);
        EXPECT_TRUE(error.empty()) << error;
        EXPECT_EQ(stats.loaded, 0u);
        std::istringstream in(line + "\n");
        std::ostringstream out;
        EXPECT_EQ(daemon.serve(in, out), 1u);
    } // every insert was appended + flushed; nothing to save on exit

    Daemon daemon(opt);
    std::string error;
    const auto stats = daemon.start(&error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(stats.loaded, 3u);
    EXPECT_EQ(stats.discarded, 0u);

    std::istringstream in(line + "\n");
    std::ostringstream out;
    EXPECT_EQ(daemon.serve(in, out), 1u);
    EXPECT_NE(out.str().find("\"simulated\":0"), std::string::npos);
    EXPECT_EQ(daemon.service().lastBatch().cacheHits, 3u);
}

} // namespace
