#include "service/cache_store.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/machine_config.hh"
#include "service/config_codec.hh"
#include "service/json.hh"
#include "sim/fnv1a.hh"

namespace wisync::service {

namespace {

constexpr std::uint64_t kMagic = 0x45524F5453435357ull; // "WSCSTORE"
/** Bump when the record layout below changes shape. */
constexpr std::uint64_t kLayoutVersion = 1;

std::uint64_t
fnv1a(const char *data, std::size_t n)
{
    sim::Fnv1a f;
    f.bytes(data, n);
    return f.h;
}

/** Cheap integrity check over a record's length field alone: when it
 *  holds, the length can be trusted for framing even if the payload
 *  is corrupt, so load() can skip the record and keep reading. */
std::uint32_t
frameCheck(std::uint32_t payload_bytes)
{
    return (payload_bytes * 0x9E3779B9u) ^ 0x57534352u; // "WSCR"
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t
getU32(const char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(static_cast<unsigned char>(p[i])) << (8 * i);
    return v;
}

std::uint64_t
getU64(const char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(static_cast<unsigned char>(p[i])) << (8 * i);
    return v;
}

constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kRecordHeaderBytes = 16; // len + check + checksum
/** fingerprint + pointJsonBytes + result words; the JSON itself is
 *  at least "{...}". */
constexpr std::size_t kMinPayloadBytes =
    8 + 4 + 2 + 8 * CacheStore::kResultWords;

/** Decode one verified payload; throws on any shape problem (the
 *  caller counts it as a discarded record). */
void
decodePayload(const char *p, std::size_t n, RequestPoint &point,
              workloads::KernelResult &result)
{
    if (n < kMinPayloadBytes)
        throw std::runtime_error("payload too short");
    const std::uint64_t fp = getU64(p);
    const std::uint32_t jsonBytes = getU32(p + 8);
    if (12 + std::size_t(jsonBytes) + 8 * CacheStore::kResultWords != n)
        throw std::runtime_error("payload length mismatch");
    const std::string jsonText(p + 12, jsonBytes);
    const Json doc = Json::parse(jsonText);
    const Json *config = doc.find("config");
    const Json *workload = doc.find("workload");
    if (config == nullptr || workload == nullptr)
        throw std::runtime_error("point object missing config/workload");
    point.config = ConfigCodec::parseConfig(*config);
    point.workload = ConfigCodec::parseWorkload(*workload);
    if (point.fingerprint() != fp)
        throw std::runtime_error("fingerprint mismatch");
    workloads::CounterWords words;
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = getU64(p + 12 + jsonBytes + 8 * i);
    result = workloads::fromCounterWords(words);
}

} // namespace

bool
writeFileAtomic(const std::string &path, const std::string &contents,
                std::string *error)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f) {
            if (error != nullptr)
                *error = "cannot open " + tmp;
            return false;
        }
        f.write(contents.data(),
                static_cast<std::streamsize>(contents.size()));
        f.flush();
        if (!f) {
            if (error != nullptr)
                *error = "write failed on " + tmp;
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error != nullptr)
            *error = "rename " + tmp + " -> " + path + " failed";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

std::uint64_t
CacheStore::formatVersion()
{
    // Fold the layout version with both fingerprint stream versions
    // and the result-word names: changing ANY of them changes the file
    // version, so records persisted under an old stream or word layout
    // can never alias the new one.
    sim::Fnv1a f;
    f.u64(kLayoutVersion);
    f.u64(core::MachineConfig::kFingerprintVersion);
    f.u64(WorkloadSpec::kFingerprintVersion);
    const workloads::KernelResult names;
    workloads::forEachCounter(
        names, [&](const char *name, const auto &, workloads::CounterKind) {
            f.bytes(name, std::strlen(name) + 1);
        });
    return f.h;
}

std::string
CacheStore::encodeHeader()
{
    std::string out;
    putU64(out, kMagic);
    putU64(out, formatVersion());
    return out;
}

std::string
CacheStore::encodeRecord(const RequestPoint &point,
                         const workloads::KernelResult &result)
{
    std::string payload;
    putU64(payload, point.fingerprint());
    const std::string json = ConfigCodec::serialize(point);
    putU32(payload, static_cast<std::uint32_t>(json.size()));
    payload += json;
    for (const std::uint64_t word : workloads::toCounterWords(result))
        putU64(payload, word);

    std::string out;
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    putU32(out, frameCheck(static_cast<std::uint32_t>(payload.size())));
    putU64(out, fnv1a(payload.data(), payload.size()));
    out += payload;
    return out;
}

bool
CacheStore::save(const ResultCache &cache, const std::string &path,
                 std::string *error)
{
    std::string out = encodeHeader();
    // LRU-first: replaying the file front-to-back re-inserts entries
    // in recency order, leaving the most recent one MRU again.
    cache.visitLruToMru(
        [&](const RequestPoint &point,
            const workloads::KernelResult &result) {
            out += encodeRecord(point, result);
        });
    return writeFileAtomic(path, out, error);
}

CacheStore::LoadStats
CacheStore::load(ResultCache &cache, const std::string &path)
{
    LoadStats stats;
    std::string data;
    {
        std::ifstream f(path, std::ios::binary);
        if (!f) {
            stats.error = "cannot open " + path;
            return stats;
        }
        std::ostringstream ss;
        ss << f.rdbuf();
        data = ss.str();
    }
    stats.fileFound = true;

    if (data.size() < kHeaderBytes) {
        stats.error = "truncated header";
        return stats;
    }
    if (getU64(data.data()) != kMagic) {
        stats.error = "bad magic";
        return stats;
    }
    stats.headerOk = true;
    if (getU64(data.data() + 8) != formatVersion()) {
        stats.versionMismatch = true;
        stats.error = "format version mismatch";
        return stats;
    }

    std::size_t pos = kHeaderBytes;
    auto firstError = [&](const std::string &what) {
        if (stats.error.empty())
            stats.error = what;
    };
    while (pos < data.size()) {
        if (data.size() - pos < kRecordHeaderBytes) {
            // Partial record header: a killed appender's tail.
            ++stats.discarded;
            firstError("truncated record header");
            break;
        }
        const std::uint32_t len = getU32(data.data() + pos);
        const std::uint32_t check = getU32(data.data() + pos + 4);
        const std::uint64_t checksum = getU64(data.data() + pos + 8);
        if (check != frameCheck(len)) {
            // The length itself is untrustworthy: framing is lost, so
            // everything from here on is one opaque blob.
            ++stats.discarded;
            firstError("corrupt record framing");
            break;
        }
        if (len < kMinPayloadBytes ||
            data.size() - pos - kRecordHeaderBytes < len) {
            ++stats.discarded;
            firstError("record runs past end of file");
            break;
        }
        const char *payload = data.data() + pos + kRecordHeaderBytes;
        pos += kRecordHeaderBytes + len;
        if (fnv1a(payload, len) != checksum) {
            // Payload corrupt but framing intact: drop just this
            // record and keep salvaging the rest.
            ++stats.discarded;
            firstError("record checksum mismatch");
            continue;
        }
        try {
            RequestPoint point;
            workloads::KernelResult result;
            decodePayload(payload, len, point, result);
            cache.insert(point, result);
            ++stats.loaded;
        } catch (const std::exception &e) {
            ++stats.discarded;
            firstError(std::string("undecodable record: ") + e.what());
        }
    }
    return stats;
}

bool
CacheStore::Appender::open(const std::string &path, std::string *error)
{
    close();
    file_ = std::fopen(path.c_str(), "ab");
    if (file_ == nullptr) {
        if (error != nullptr)
            *error = "cannot open " + path + " for append";
        return false;
    }
    // In append mode the write position only moves to the end at the
    // first write — seek explicitly so ftell reports the true size.
    // An empty (or brand-new) file still needs its header.
    std::fseek(file_, 0, SEEK_END);
    if (std::ftell(file_) == 0) {
        const std::string header = CacheStore::encodeHeader();
        if (std::fwrite(header.data(), 1, header.size(), file_) !=
                header.size() ||
            std::fflush(file_) != 0) {
            if (error != nullptr)
                *error = "cannot write header to " + path;
            close();
            return false;
        }
    }
    return true;
}

bool
CacheStore::Appender::append(const RequestPoint &point,
                             const workloads::KernelResult &result)
{
    if (file_ == nullptr)
        return false;
    const std::string record = encodeRecord(point, result);
    if (std::fwrite(record.data(), 1, record.size(), file_) !=
        record.size())
        return false;
    return std::fflush(file_) == 0;
}

void
CacheStore::Appender::close()
{
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

} // namespace wisync::service
