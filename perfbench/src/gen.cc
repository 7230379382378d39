#include "gen.hh"

#include <array>
#include <string>
#include <utility>

namespace perfbench {

namespace {

/** SplitMix64: tiny, seedable, identical on every platform. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::size_t below(std::size_t n) { return next() % n; }

    /** A MachineConfig seed that round-trips through any JSON reader. */
    std::uint64_t configSeed() { return next() & 0xffffffffffffull; }

  private:
    std::uint64_t s_;
};

const std::array<const char *, 4> kKinds = {"Baseline", "Baseline+",
                                            "WiSyncNoT", "WiSync"};
const std::array<const char *, 2> kWirelessKinds = {"WiSyncNoT",
                                                    "WiSync"};
const std::array<const char *, 4> kMacs = {"BRS", "Token", "FuzzyToken",
                                           "Adaptive"};
const std::array<const char *, 3> kCasKernels = {"lifo", "fifo", "add"};

std::string
config(const char *kind, unsigned cores, std::uint64_t seed,
       const std::string &extra = "")
{
    return std::string("{\"kind\":\"") + kind +
           "\",\"cores\":" + std::to_string(cores) +
           ",\"seed\":" + std::to_string(seed) + extra + "}";
}

std::string
macBlock(const char *mac, double loss_pct = 0.0)
{
    std::string out = std::string(",\"wireless\":{\"mac\":\"") + mac + "\"";
    if (loss_pct > 0.0)
        out += ",\"lossPct\":" + std::to_string(static_cast<int>(loss_pct));
    return out + "}";
}

std::string
point(const std::string &cfg, const std::string &workload)
{
    return "{\"config\":" + cfg + ",\"workload\":" + workload + "}";
}

std::string
tightLoop(unsigned iterations)
{
    return "{\"kind\":\"tightloop\",\"iterations\":" +
           std::to_string(iterations) + "}";
}

std::string
casKernel(const char *kernel, unsigned duration)
{
    return std::string("{\"kind\":\"cas\",\"kernel\":\"") + kernel +
           "\",\"duration\":" + std::to_string(duration) + "}";
}

std::string
document(const std::vector<std::string> &points)
{
    std::string out = "{\"points\":[";
    for (std::size_t i = 0; i < points.size(); ++i)
        out += (i ? ",\n" : "\n") + points[i];
    return out + "\n]}\n";
}

/** Fig. 10/11 grid: Table 6 variants x apps x the four kinds, 64 cores. */
std::vector<std::string>
paperAppsGrid(SplitMix &rng)
{
    const std::array<const char *, 5> variants = {
        "Default", "SlowNet", "SlowNet+L2", "FastNet", "SlowBMEM"};
    // Fig. 11's representative subset: the sync-intensive apps plus
    // sync-light ones, preserving the suite's mix.
    const std::array<const char *, 10> apps = {
        "streamcluster", "ocean-c", "raytrace",     "radiosity",
        "water-ns",      "barnes",  "fft",          "blackscholes",
        "canneal",       "lu-c"};
    std::vector<std::string> points;
    for (const char *variant : variants) {
        for (const char *app : apps) {
            // One seed per (variant, app) cell: the kinds are compared
            // on the same stochastic inputs, as the figure does.
            const std::uint64_t seed = rng.configSeed();
            for (const char *kind : kKinds) {
                const std::string extra =
                    std::string(",\"variant\":\"") + variant + "\"";
                points.push_back("{\"config\":" +
                                 config(kind, 64, seed, extra) +
                                 ",\"app\":\"" + app + "\"}");
            }
        }
    }
    return points;
}

/** Barrier storms and CAS kernels over every MAC, plus the lossy and
 *  multi-chip slices. */
std::vector<std::string>
wirelessSyncGrid(SplitMix &rng)
{
    constexpr unsigned kIterations = 100;
    constexpr unsigned kCasDuration = 60000;
    std::vector<std::string> points;
    for (const unsigned cores : {16u, 64u}) {
        for (const char *kind : kWirelessKinds) {
            for (const char *mac : kMacs) {
                points.push_back(point(
                    config(kind, cores, rng.configSeed(), macBlock(mac)),
                    tightLoop(kIterations)));
                for (const char *kernel : kCasKernels)
                    points.push_back(point(config(kind, cores,
                                                  rng.configSeed(),
                                                  macBlock(mac)),
                                           casKernel(kernel, kCasDuration)));
            }
        }
    }
    // 5% lossy slice: the ack/retry reliability layer.
    for (const char *kind : kWirelessKinds) {
        for (const char *mac : {"BRS", "Adaptive"}) {
            const std::string lossy = macBlock(mac, 5.0);
            points.push_back(point(config(kind, 64, rng.configSeed(), lossy),
                                   tightLoop(kIterations)));
            points.push_back(point(config(kind, 64, rng.configSeed(), lossy),
                                   casKernel("add", kCasDuration)));
        }
    }
    // 4-chip, 256-core barrier slice: the chip bridge.
    for (const char *kind : kWirelessKinds) {
        for (const char *mac : {"BRS", "Token"}) {
            points.push_back(point(config(kind, 256, rng.configSeed(),
                                          ",\"chips\":4" + macBlock(mac)),
                                   tightLoop(kIterations)));
        }
    }
    return points;
}

/**
 * A light 16-core point of type @p type (mod 40): a short barrier loop
 * or CAS window on one of the four kinds, over every MAC on the
 * wireless ones. Cycling through the types keeps each pass's mix of
 * point costs the same for every seed; the seed picks the config seeds.
 */
std::string
lightPoint(SplitMix &rng, std::size_t type)
{
    // 2 wired kinds x 4 kernels, then 2 wireless kinds x 4 MACs x 4.
    type %= 40;
    const bool wired = type < 8;
    const std::size_t rest = wired ? type : type - 8;
    const char *kind = wired ? kKinds[rest / 4] : kWirelessKinds[rest / 16];
    const std::string mac = wired ? "" : macBlock(kMacs[(rest / 4) % 4]);
    const std::string cfg = config(kind, 16, rng.configSeed(), mac);
    const std::size_t kernel = rest % 4;
    return point(cfg, kernel == 0
                          ? tightLoop(10)
                          : casKernel(kCasKernels[kernel - 1], 20000));
}

std::string
request(const std::vector<std::string> &points)
{
    std::string out = "{\"points\":[";
    for (std::size_t i = 0; i < points.size(); ++i)
        out += (i ? "," : "") + points[i];
    return out + "]}";
}

/** Lines the daemon must answer with a typed error, never a crash. */
std::string
badLine(std::size_t variant)
{
    const std::string good = point(config("WiSync", 16, 1), tightLoop(10));
    switch (variant % 6) {
      case 0: // truncated document
        return request({good}).substr(0, 40);
      case 1: // misspelled knob
        return request({point(config("WiSync", 16, 1, ",\"corez\":4"),
                              tightLoop(10))});
      case 2: // type mismatch
        return "{\"points\":[{\"config\":{\"kind\":\"WiSync\",\"cores\":"
               "\"sixteen\"},\"workload\":{\"kind\":\"tightloop\"}}]}";
      case 3: // structurally invalid: cores not divisible by chips
        return request({point(config("WiSync", 16, 1, ",\"chips\":3"),
                              tightLoop(10))});
      case 4: // not a request object
        return "[1,2,3]";
      default: { // oversized: rejected before parsing
        std::string line = "{\"points\":[" + good;
        line.append(2 * kDaemonMaxRequestBytes, ' ');
        return line + "]}";
      }
    }
}

} // namespace

std::optional<Workload>
parseWorkloadName(const std::string &name)
{
    for (const Workload w : {Workload::PaperApps, Workload::WirelessSync,
                             Workload::DaemonMixed}) {
        if (name == workloadName(w))
            return w;
    }
    return std::nullopt;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::PaperApps:
        return "paper-apps";
      case Workload::WirelessSync:
        return "wireless-sync";
      case Workload::DaemonMixed:
        return "daemon-mixed";
    }
    return "?";
}

std::string
generateSweepInput(Workload w, std::uint64_t seed)
{
    SplitMix rng(seed);
    return document(w == Workload::PaperApps ? paperAppsGrid(rng)
                                             : wirelessSyncGrid(rng));
}

DaemonInput
generateDaemonInput(std::uint64_t seed)
{
    // One pass: 300 lines, 30% hits, 45% misses, 15% batches, 10% bad.
    constexpr std::size_t kArchive = 96;
    constexpr std::size_t kHot = 24;
    constexpr std::size_t kHits = 90;
    constexpr std::size_t kMisses = 135;
    constexpr std::size_t kBatches = 45;
    constexpr std::size_t kBad = 30;
    constexpr std::size_t kBatchNew = 3; // new points per batch
    // Between two uses of one popular point at most the pass's new
    // points and the other popular points are used, fewer than the
    // cache holds: no popular point is evicted, so every Hit line is
    // answered from cache (the run checks each answer's cacheHit
    // flag). The new points outnumber the free entries, so LRU
    // eviction of the archive still runs.
    constexpr std::size_t kNewPoints = kMisses + kBatchNew * kBatches;
    static_assert(kNewPoints + kHot - 1 < kDaemonCacheCapacity);
    static_assert(kArchive + kHot + kNewPoints > kDaemonCacheCapacity);

    SplitMix rng(seed);
    DaemonInput in;
    std::size_t type = 0;
    for (std::size_t i = 0; i < kArchive; ++i)
        in.archive.push_back(lightPoint(rng, type++));
    for (std::size_t i = 0; i < kHot; ++i)
        in.hot.push_back(lightPoint(rng, type++));

    // Fixed counts per kind in a seeded order; line 0 stays a hit.
    using Kind = DaemonLine::Kind;
    std::vector<Kind> order;
    order.insert(order.end(), kHits - 1, Kind::Hit);
    order.insert(order.end(), kMisses, Kind::Miss);
    order.insert(order.end(), kBatches, Kind::Batch);
    order.insert(order.end(), kBad, Kind::Bad);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    auto hot = [&] { return in.hot[rng.below(in.hot.size())]; };
    in.lines.push_back({Kind::Hit, request({in.hot[0]})});
    std::size_t bad = 0;
    for (const Kind kind : order) {
        switch (kind) {
          case Kind::Hit:
            in.lines.push_back({kind, request({hot()})});
            break;
          case Kind::Miss:
            in.lines.push_back({kind, request({lightPoint(rng, type++)})});
            break;
          case Kind::Batch: {
            std::vector<std::string> points;
            for (std::size_t i = 0; i < kBatchNew; ++i)
                points.push_back(lightPoint(rng, type++));
            points.push_back(hot());
            points.push_back(hot());
            points.push_back(points[rng.below(points.size())]);
            in.lines.push_back({kind, request(points)});
            break;
          }
          case Kind::Bad:
            in.lines.push_back({kind, badLine(bad++)});
            break;
        }
    }
    return in;
}

std::string
serializeDaemonInput(const DaemonInput &in)
{
    std::string out;
    for (const auto &p : in.archive)
        out += "archive " + p + "\n";
    for (const auto &p : in.hot)
        out += "hot " + p + "\n";
    for (const auto &line : in.lines)
        out += "line " + std::to_string(static_cast<int>(line.kind)) + " " +
               line.text + "\n";
    return out;
}

} // namespace perfbench
