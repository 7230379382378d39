#include "service/cache_store.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>
#include <vector>

#include <sys/stat.h>

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

/**
 * fnv1a() of each of @p ranges into @p out. One range is a single
 * chain of dependent multiplies; hashing four side by side keeps the
 * multiplier busy, which is what a file of records allows.
 */
void
fnv1aEach(const std::vector<std::string_view> &ranges, std::uint64_t *out)
{
    constexpr std::size_t kLanes = 4;
    std::size_t i = 0;
    for (; i + kLanes <= ranges.size(); i += kLanes) {
        const std::string_view *r = ranges.data() + i;
        std::size_t common = r[0].size();
        for (std::size_t l = 1; l < kLanes; ++l)
            common = std::min(common, r[l].size());
        sim::Fnv1a f[kLanes];
        for (std::size_t k = 0; k < common; ++k) {
            for (std::size_t l = 0; l < kLanes; ++l)
                f[l].byte(static_cast<unsigned char>(r[l][k]));
        }
        for (std::size_t l = 0; l < kLanes; ++l) {
            f[l].bytes(r[l].data() + common, r[l].size() - common);
            out[i + l] = f[l].h;
        }
    }
    for (; i < ranges.size(); ++i)
        out[i] = fnv1a(ranges[i].data(), ranges[i].size());
}

/** Cheap integrity check over a record's length field alone: when it
 *  holds, the length can be trusted for framing even if the payload
 *  is corrupt, so load() can skip the record and keep reading. */
std::uint32_t
frameCheck(std::uint32_t payload_bytes)
{
    return (payload_bytes * 0x9E3779B9u) ^ 0x57534352u; // "WSCR"
}

/** Write @p v little-endian over the @p N bytes at @p p. */
template <std::size_t N, typename T>
void
setLe(char *p, T v)
{
    for (std::size_t i = 0; i < N; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

void
putU32(std::string &out, std::uint32_t v)
{
    char b[4];
    setLe<4>(b, v);
    out.append(b, 4);
}

void
putU64(std::string &out, std::uint64_t v)
{
    char b[8];
    setLe<8>(b, v);
    out.append(b, 8);
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

/** Decode one verified payload and return its fingerprint; throws on
 *  any shape problem (the caller counts it as a discarded record). */
std::uint64_t
decodePayload(const char *p, std::size_t n, RequestPoint &point,
              workloads::KernelResult &result)
{
    if (n < kMinPayloadBytes)
        throw std::runtime_error("payload too short");
    const std::uint64_t fp = getU64(p);
    const std::uint32_t jsonBytes = getU32(p + 8);
    if (12 + std::size_t(jsonBytes) + 8 * CacheStore::kResultWords != n)
        throw std::runtime_error("payload length mismatch");
    const Json doc = Json::parse(std::string_view(p + 12, jsonBytes));
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
    return fp;
}

/** The whole of @p path in one buffer of the file's size. */
bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    struct stat st;
    const std::size_t size =
        fstat(fileno(f), &st) == 0 && st.st_size > 0 ? st.st_size : 0;
    // One byte of room past the size, so an unchanged file ends the
    // first read short; a file that grew meanwhile is read to its end.
    out.resize(size + 1);
    std::size_t got = 0;
    while ((got += std::fread(out.data() + got, 1, out.size() - got, f)) ==
           out.size())
        out.resize(2 * out.size());
    out.resize(got);
    std::fclose(f);
    return true;
}

/**
 * Append the record of @p point (whose fingerprint the caller has) to
 * @p out, all but its checksum (see seal()); returns the record's
 * offset.
 */
std::size_t
appendUnsealed(const RequestPoint &point, std::uint64_t fingerprint,
               const workloads::KernelResult &result, std::string &out)
{
    // The record header and the JSON length are written once their
    // values are known, over placeholders.
    const std::size_t record = out.size();
    out.append(kRecordHeaderBytes, '\0');
    const std::size_t payload = out.size();
    putU64(out, fingerprint);
    putU32(out, 0);
    ConfigCodec::serialize(point, out);
    const std::size_t json_bytes = out.size() - payload - 12;
    for (const std::uint64_t word : workloads::toCounterWords(result))
        putU64(out, word);

    const auto len = static_cast<std::uint32_t>(out.size() - payload);
    char *p = out.data();
    setLe<4>(p + payload + 8, static_cast<std::uint32_t>(json_bytes));
    setLe<4>(p + record, len);
    setLe<4>(p + record + 4, frameCheck(len));
    return record;
}

/** The payload of the record at @p record of @p data. */
std::string_view
payloadAt(std::string_view data, std::size_t record)
{
    return data.substr(record + kRecordHeaderBytes,
                       getU32(data.data() + record));
}

/** Append the whole record of @p point to @p out. */
void
appendRecord(const RequestPoint &point,
             const workloads::KernelResult &result, std::string &out)
{
    const std::size_t record =
        appendUnsealed(point, point.fingerprint(), result, out);
    const std::string_view payload = payloadAt(out, record);
    setLe<8>(out.data() + record + 8, fnv1a(payload.data(), payload.size()));
}

/** Write the checksum of every record at @p records of @p out. */
void
seal(std::string &out, const std::vector<std::size_t> &records)
{
    std::vector<std::string_view> payloads;
    payloads.reserve(records.size());
    for (const std::size_t r : records)
        payloads.push_back(payloadAt(out, r));
    std::vector<std::uint64_t> sums(records.size());
    fnv1aEach(payloads, sums.data());
    for (std::size_t i = 0; i < records.size(); ++i)
        setLe<8>(out.data() + records[i] + 8, sums[i]);
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
    std::string out;
    appendRecord(point, result, out);
    return out;
}

bool
CacheStore::save(const ResultCache &cache, const std::string &path,
                 std::string *error)
{
    std::string out = encodeHeader();
    std::vector<std::size_t> records;
    records.reserve(cache.size());
    // LRU-first: replaying the file front-to-back re-inserts entries
    // in recency order, leaving the most recent one MRU again.
    cache.visitLruToMru([&](const RequestPoint &point,
                            std::uint64_t fingerprint,
                            const workloads::KernelResult &result) {
        records.push_back(appendUnsealed(point, fingerprint, result, out));
        if (records.size() == 1) {
            // Size the buffer once from the first record: canonical
            // records differ by a few digits.
            const std::size_t bytes = out.size() - kHeaderBytes;
            out.reserve(kHeaderBytes + cache.size() * (bytes + bytes / 4));
        }
    });
    seal(out, records);
    return writeFileAtomic(path, out, error);
}

CacheStore::LoadStats
CacheStore::load(ResultCache &cache, const std::string &path)
{
    LoadStats stats;
    std::string data;
    if (!readFile(path, data)) {
        stats.error = "cannot open " + path;
        return stats;
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

    // Frame every whole record first, up to the first framing problem
    // (the end of what can be salvaged), then check their checksums
    // together and replay them in file order.
    std::vector<std::size_t> records;
    const char *tail = nullptr;
    for (std::size_t pos = kHeaderBytes; pos < data.size() && !tail;) {
        if (data.size() - pos < kRecordHeaderBytes) {
            // Partial record header: a killed appender's tail.
            tail = "truncated record header";
            break;
        }
        const std::uint32_t len = getU32(data.data() + pos);
        if (getU32(data.data() + pos + 4) != frameCheck(len)) {
            // The length itself is untrustworthy: framing is lost, so
            // everything from here on is one opaque blob.
            tail = "corrupt record framing";
        } else if (len < kMinPayloadBytes ||
                   data.size() - pos - kRecordHeaderBytes < len) {
            tail = "record runs past end of file";
        } else {
            records.push_back(pos);
            pos += kRecordHeaderBytes + len;
        }
    }
    std::vector<std::string_view> payloads;
    payloads.reserve(records.size());
    for (const std::size_t r : records)
        payloads.push_back(payloadAt(data, r));
    std::vector<std::uint64_t> sums(records.size());
    fnv1aEach(payloads, sums.data());

    auto firstError = [&](const std::string &what) {
        if (stats.error.empty())
            stats.error = what;
    };
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (sums[i] != getU64(data.data() + records[i] + 8)) {
            // Payload corrupt but framing intact: drop just this
            // record and keep salvaging the rest.
            ++stats.discarded;
            firstError("record checksum mismatch");
            continue;
        }
        try {
            RequestPoint point;
            workloads::KernelResult result;
            const std::uint64_t fp = decodePayload(
                payloads[i].data(), payloads[i].size(), point, result);
            cache.insert(point, result, fp);
            ++stats.loaded;
        } catch (const std::exception &e) {
            ++stats.discarded;
            firstError(std::string("undecodable record: ") + e.what());
        }
    }
    if (tail != nullptr) {
        ++stats.discarded;
        firstError(tail);
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
    record_.clear();
    appendRecord(point, result, record_);
    if (std::fwrite(record_.data(), 1, record_.size(), file_) !=
        record_.size())
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
