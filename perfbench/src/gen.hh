/**
 * @file
 * Seeded input generation for the three workloads.
 *
 * The program under test only ever sees the generated text: sweep
 * grids as a JSON document whose configs and kernels go through the
 * service's ConfigCodec, and the daemon's request stream as request
 * lines. The grid shape and order are fixed per workload; the seed
 * picks every point's MachineConfig.seed and the daemon stream's
 * mix. The same seed gives byte-identical text (locked by the
 * self-tests).
 */

#ifndef PERFBENCH_GEN_HH
#define PERFBENCH_GEN_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload
{
    PaperApps,
    WirelessSync,
    DaemonMixed,
};

std::optional<Workload> parseWorkloadName(const std::string &name);
const char *workloadName(Workload w);

/**
 * A sweep grid: {"points":[P, ...]} where each P is either a service
 * request point {"config":{...},"workload":{...}} or an application
 * point {"config":{...},"app":"<name>"} (the Fig. 10/11 apps have no
 * service workload spelling).
 */
std::string generateSweepInput(Workload w, std::uint64_t seed);

/** Daemon knobs the stream is sized against; the capacity keeps every
 *  popular point resident through a pass (see generateDaemonInput). */
constexpr std::size_t kDaemonCacheCapacity = 300;
constexpr std::size_t kDaemonMaxRequestBytes = 8192;

/** One request line of the daemon stream. */
struct DaemonLine
{
    enum class Kind
    {
        Hit,   ///< a pre-seeded popular point: answered from cache
        Miss,  ///< a point no earlier line named: simulate + append
        Batch, ///< several points, new and popular, one duplicated
        Bad,   ///< malformed or oversized: must answer a typed error
    };
    Kind kind;
    std::string text;
};

/** Everything the daemon workload feeds the program. */
struct DaemonInput
{
    /** Older records in the pre-seeded cache file, never requested:
     *  the stream's new points evict most of them. */
    std::vector<std::string> archive;
    /** Popular points, written last to the cache file so they load
     *  resident; Hit lines name them. */
    std::vector<std::string> hot;
    /** One pass of the closed-loop stream; line 0 is a Hit. */
    std::vector<DaemonLine> lines;
};

DaemonInput generateDaemonInput(std::uint64_t seed);

/** The whole daemon input as one text (self-test byte identity). */
std::string serializeDaemonInput(const DaemonInput &in);

} // namespace perfbench

#endif // PERFBENCH_GEN_HH
