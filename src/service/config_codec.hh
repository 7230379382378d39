/**
 * @file
 * JSON <-> MachineConfig codec for the sweep service.
 *
 * A sweep request is a JSON document:
 *
 *   {"points": [{"config": {...}, "workload": {...}}, ...]}
 *
 * Each config object may set any subset of the supported knobs — the
 * rest take MachineConfig::make() defaults for the requested
 * kind/cores/variant, exactly as the benches build their grids. The
 * supported knobs are the wire entries of core::forEachField(), which
 * both parse and serialize walk; they cover every knob describe()
 * distinguishes plus seed and issueWidth, so any point a figure bench
 * can run, a service request can name.
 *
 * Contracts:
 *
 *  - Strictness: unknown keys are hard errors anywhere in the
 *    request — a misspelled knob must never silently fall back to its
 *    default and "succeed" with the wrong simulation. Type
 *    mismatches (a field's C++ type bounds its JSON number) and
 *    whatever MachineConfig::validate() rejects are errors too. Every
 *    error names the offending field path and the point index.
 *
 *  - Canonicalization: serialize() emits every supported key in one
 *    fixed order with shortest-round-trip numbers. Hence
 *    serialize(parse(x)) is the canonical form of any request x —
 *    independent of x's key order, whitespace, number spelling and
 *    omitted defaults — and two requests denote the same point iff
 *    their canonical forms are byte-equal. The result cache and the
 *    in-batch dedupe key on exactly that string (via its
 *    fingerprint), which is what makes cache hits exact.
 *
 *  - Round-trip: parse(serialize(cfg)) == cfg (MachineConfig
 *    operator==) for any cfg reachable through make() plus
 *    codec-covered knob overrides.
 */

#ifndef WISYNC_SERVICE_CONFIG_CODEC_HH
#define WISYNC_SERVICE_CONFIG_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/machine_config.hh"
#include "service/json.hh"
#include "workloads/cas_kernels.hh"
#include "workloads/kernel_result.hh"
#include "workloads/tight_loop.hh"

namespace wisync::core {
class Machine;
}

namespace wisync::service {

/**
 * Request parse/validation failure: the offending field path (e.g.
 * "points[3].config.wireless.lossPct") and the point index it
 * occurred in (npos for request-level errors). what() carries both.
 */
class ParseError : public std::runtime_error
{
  public:
    static constexpr std::size_t kNoPoint =
        static_cast<std::size_t>(-1);

    ParseError(std::string field, std::size_t point_index,
               const std::string &message);

    const std::string &field() const { return field_; }
    std::size_t pointIndex() const { return pointIndex_; }

  private:
    std::string field_;
    std::size_t pointIndex_;
};

/**
 * A point's simulated-cycle budget was exhausted: the engine parked at
 * exactly maxCycles with work still pending, the run was abandoned and
 * this typed error captured instead (through ParallelSweep's
 * runCaptured path — the batch keeps going). Deterministic: the same
 * point always fails at the same cycle with the same message.
 */
class DeadlineExceeded : public std::runtime_error
{
  public:
    DeadlineExceeded(std::uint64_t max_cycles, std::uint64_t at_cycle);

    std::uint64_t maxCycles() const { return maxCycles_; }
    /** The exact simulated cycle the engine parked at (== maxCycles). */
    std::uint64_t atCycle() const { return atCycle_; }

  private:
    std::uint64_t maxCycles_;
    std::uint64_t atCycle_;
};

/** Which kernel a request point runs on its machine. */
struct WorkloadSpec
{
    enum class Kind
    {
        TightLoop,
        Cas,
    };

    Kind kind = Kind::TightLoop;
    workloads::TightLoopParams tightLoop;
    workloads::CasKernel casKernel = workloads::CasKernel::Lifo;
    workloads::CasKernelParams cas;
    /**
     * Simulated-cycle budget for the whole point; 0 = unlimited. A
     * point that is still running at this cycle aborts with a typed
     * DeadlineExceeded (never a hang, never a partial result) —
     * unlike tightloop's runLimit, which yields a completed=false
     * result. Enforced by the engine's deadline park, so the abort
     * cycle is exact and deterministic.
     */
    std::uint64_t maxCycles = 0;

    bool operator==(const WorkloadSpec &) const = default;

    /** Canonical, process-stable hash (same contract as
     *  MachineConfig::fingerprint). */
    std::uint64_t fingerprint() const;

    /** Version of the workload fingerprint stream layout (same bump
     *  discipline as MachineConfig::kFingerprintVersion). */
    static constexpr std::uint64_t kFingerprintVersion = 2;

    /** Relative cost estimate for shard planning: cores x workload
     *  length (see ShardPlanner::planByCost). */
    std::uint64_t lengthEstimate() const;
};

/** One point of a sweep request. */
struct RequestPoint
{
    core::MachineConfig config;
    WorkloadSpec workload;

    bool operator==(const RequestPoint &) const = default;

    /** Combined config x workload fingerprint — the cache key. */
    std::uint64_t fingerprint() const;
};

/** A parsed batch request. */
struct SweepRequest
{
    std::vector<RequestPoint> points;
};

/** See the file comment for the schema and the codec contracts. */
class ConfigCodec
{
  public:
    /** Parse a whole request document (throws ParseError). */
    static SweepRequest parseRequest(const std::string &json_text);

    /**
     * Parse one config object. @p point_index and @p path seed error
     * reporting ("points[i].config" when called via parseRequest).
     */
    static core::MachineConfig
    parseConfig(const Json &v, std::size_t point_index = ParseError::kNoPoint,
                const std::string &path = "config");

    /** Parse one workload object (same error conventions). */
    static WorkloadSpec
    parseWorkload(const Json &v,
                  std::size_t point_index = ParseError::kNoPoint,
                  const std::string &path = "workload");

    /** Canonical JSON of @p cfg (every supported key, fixed order). */
    static std::string serialize(const core::MachineConfig &cfg);

    /** Canonical JSON of @p w. */
    static std::string serialize(const WorkloadSpec &w);

    /** Canonical JSON of one request point. */
    static std::string serialize(const RequestPoint &point);

    /** Canonical JSON of a whole request. */
    static std::string serializeRequest(const SweepRequest &request);

    /** JSON object with every simulated-observable KernelResult
     *  field (the service response's per-point "result" block). */
    static std::string serializeResult(const workloads::KernelResult &r);

    // The same texts appended to a caller's buffer, so a writer of
    // many records (the cache store) encodes into one reserved string.
    static void serialize(const core::MachineConfig &cfg, std::string &out);
    static void serialize(const WorkloadSpec &w, std::string &out);
    static void serialize(const RequestPoint &point, std::string &out);
    static void serializeResult(const workloads::KernelResult &r,
                                std::string &out);
};

/** Run @p spec's kernel on @p machine (the sweep-point body). */
workloads::KernelResult runWorkload(const WorkloadSpec &spec,
                                    core::Machine &machine);

} // namespace wisync::service

#endif // WISYNC_SERVICE_CONFIG_CODEC_HH
