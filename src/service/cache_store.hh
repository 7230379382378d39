/**
 * @file
 * Durable, corruption-safe persistence for the service ResultCache.
 *
 * A result is a pure function of its RequestPoint and the fingerprint
 * is process-stable, so a spilled cache is a shared memo table: any
 * later daemon (or another shard host) can warm itself from the file
 * and answer those points without simulating — bit-identical to a
 * cold run, because the records ARE cold-run results.
 *
 * File layout (all integers little-endian, fixed width):
 *
 *   header:  u64 magic ("WSCSTORE"), u64 formatVersion
 *   record*: u32 payloadBytes, u32 frameCheck(payloadBytes),
 *            u64 fnv1a64(payload), payload
 *   payload: u64 fingerprint, u32 pointJsonBytes,
 *            pointJson (ConfigCodec canonical form),
 *            u64 resultWords[kResultWords] (workloads::toCounterWords:
 *            the forEachCounter list, in order)
 *
 * formatVersion folds the store layout version together with
 * MachineConfig::kFingerprintVersion, WorkloadSpec::kFingerprintVersion
 * and the forEachCounter names. A file written under any older stream
 * or word layout can never alias the current one: the version check
 * rejects it wholesale.
 *
 * Robustness contract (the reason this module exists):
 *
 *  - save() is atomic (temp file + rename): a crash mid-save leaves
 *    the previous file intact, never a truncated one.
 *  - Appender streams one record per insertion with a flush, so a
 *    SIGKILL at any instant loses at most the record being written.
 *  - load() salvages record-by-record: the per-record frame check
 *    lets it skip a corrupt payload (bit flip) and keep reading, and
 *    a truncated tail (killed appender) abandons only the bytes past
 *    the last whole record. Every dropped record is counted, never
 *    silently ignored — and a record that decodes but whose stored
 *    fingerprint disagrees with the re-computed one is dropped too.
 */

#ifndef WISYNC_SERVICE_CACHE_STORE_HH
#define WISYNC_SERVICE_CACHE_STORE_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "service/result_cache.hh"
#include "workloads/kernel_result.hh"

namespace wisync::service {

/**
 * Write @p contents to @p path atomically: a temp file in the same
 * directory is written, flushed and renamed over the target, so a
 * reader (or a crash) never observes a partial file. Also used for
 * wisync_sweepd --output.
 */
bool writeFileAtomic(const std::string &path, const std::string &contents,
                     std::string *error = nullptr);

/** See the file comment. */
class CacheStore
{
  public:
    /** KernelResult words per record (fixed by the format version). */
    static constexpr std::size_t kResultWords = workloads::kCounterCount;

    /** The store's composite format version (layout x fingerprint
     *  stream versions). */
    static std::uint64_t formatVersion();

    /** What load() managed to reconstruct. */
    struct LoadStats
    {
        /** Records replayed into the cache. */
        std::size_t loaded = 0;
        /** Records dropped: corrupt payload, bad framing, truncated
         *  tail, undecodable point, fingerprint mismatch. */
        std::size_t discarded = 0;
        bool fileFound = false;
        /** Magic matched. */
        bool headerOk = false;
        /** Header carried a different format version (nothing
         *  loaded — old fingerprints must never alias new ones). */
        bool versionMismatch = false;
        /** First problem encountered, for logs; empty if clean. */
        std::string error;
    };

    /**
     * Snapshot @p cache to @p path atomically, LRU-first so a
     * sequential reload reproduces both contents and recency.
     */
    static bool save(const ResultCache &cache, const std::string &path,
                     std::string *error = nullptr);

    /**
     * Replay every salvageable record of @p path into @p cache (which
     * evicts normally if the file holds more than its capacity).
     * Never throws: any corruption is counted in the stats.
     */
    static LoadStats load(ResultCache &cache, const std::string &path);

    /**
     * Streaming record writer for the daemon's spill hook: one
     * append + flush per cache insertion. Opens in append mode,
     * writing the header first when the file is new or empty.
     */
    class Appender
    {
      public:
        Appender() = default;
        ~Appender() { close(); }
        Appender(const Appender &) = delete;
        Appender &operator=(const Appender &) = delete;

        bool open(const std::string &path, std::string *error = nullptr);
        bool append(const RequestPoint &point,
                    const workloads::KernelResult &result);
        void close();
        bool isOpen() const { return file_ != nullptr; }

      private:
        std::FILE *file_ = nullptr;
        /** Encoding room, reused across appends. */
        std::string record_;
    };

    // Encoding building blocks, exposed so tests and the fault
    // harness can construct files (and corrupt them) byte-precisely.
    static std::string encodeHeader();
    static std::string encodeRecord(const RequestPoint &point,
                                    const workloads::KernelResult &result);
};

} // namespace wisync::service

#endif // WISYNC_SERVICE_CACHE_STORE_HH
