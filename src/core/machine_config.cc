#include "core/machine_config.hh"

#include <cstdio>
#include <type_traits>

#include "sim/fnv1a.hh"
#include "sim/logging.hh"

namespace wisync::core {

const char *
toString(ConfigKind kind)
{
    switch (kind) {
      case ConfigKind::Baseline:
        return "Baseline";
      case ConfigKind::BaselinePlus:
        return "Baseline+";
      case ConfigKind::WiSyncNoT:
        return "WiSyncNoT";
      case ConfigKind::WiSync:
        return "WiSync";
    }
    return "?";
}

const char *
toString(Variant variant)
{
    switch (variant) {
      case Variant::Default:
        return "Default";
      case Variant::SlowNet:
        return "SlowNet";
      case Variant::SlowNetL2:
        return "SlowNet+L2";
      case Variant::FastNet:
        return "FastNet";
      case Variant::SlowBmem:
        return "SlowBMEM";
    }
    return "?";
}

MachineConfig
MachineConfig::make(ConfigKind kind, std::uint32_t cores, Variant variant)
{
    WISYNC_FATAL_IF(cores == 0, "need at least one core");
    MachineConfig cfg;
    cfg.kind = kind;
    cfg.variant = variant;
    cfg.numCores = cores;
    cfg.mesh.numNodes = cores;
    cfg.mesh.treeMulticast = (kind == ConfigKind::BaselinePlus);

    switch (variant) {
      case Variant::Default:
        break;
      case Variant::SlowNet:
        cfg.mesh.hopCycles = 6;
        break;
      case Variant::SlowNetL2:
        cfg.mesh.hopCycles = 6;
        cfg.mem.l2RtCycles = 12;
        break;
      case Variant::FastNet:
        cfg.mesh.hopCycles = 2;
        break;
      case Variant::SlowBmem:
        cfg.bm.bmRtCycles = 4;
        break;
    }
    return cfg;
}

bool
MachineConfig::compatibleShape(const MachineConfig &other) const
{
    // kind is deliberately NOT structural: every machine carries the
    // full wired + wireless substrate, and reset() re-gates it, so a
    // sweep over the four kinds reuses one machine per core count.
    return numCores == other.numCores &&
           mesh.numNodes == other.mesh.numNodes &&
           mem.lineBytes == other.mem.lineBytes &&
           mem.l1SizeBytes == other.mem.l1SizeBytes &&
           mem.l1Assoc == other.mem.l1Assoc &&
           mem.l2BankSizeBytes == other.mem.l2BankSizeBytes &&
           mem.l2Assoc == other.mem.l2Assoc &&
           mem.numMemCtrls == other.mem.numMemCtrls &&
           mem.dramOutstanding == other.mem.dramOutstanding &&
           bm.bmBytes == other.bm.bmBytes &&
           bm.allocSlots == other.bm.allocSlots;
}

namespace {

/** Feeds every entry, wire or not, to one FNV-1a stream. */
struct FingerprintVisitor
{
    sim::Fnv1a f;

    template <typename T>
    void
    field(const char *, const T &member, const FieldSpec &)
    {
        f.u64(sim::toWord(member));
    }

    template <typename Members>
    void
    group(const char *, const FieldSpec &, Members &&members)
    {
        members();
    }
};

/** Records the first entry outside its FieldSpec range. */
struct RangeVisitor
{
    /** "wireless.burst." while inside that group. */
    std::string prefix;
    std::optional<ConfigError> error;

    template <typename T>
    void
    field(const char *name, const T &member, const FieldSpec &spec)
    {
        if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
            const double v = static_cast<double>(member);
            if (error || (v >= spec.lo && v <= spec.hi))
                return;
            std::string got;
            if constexpr (std::is_integral_v<T>)
                got = std::to_string(member);
            else
                got = number(member);
            error = ConfigError{prefix + name,
                                "must be within [" + number(spec.lo) +
                                    ", " + number(spec.hi) + "], got " +
                                    got};
        }
    }

    template <typename Members>
    void
    group(const char *name, const FieldSpec &, Members &&members)
    {
        const std::size_t outer = prefix.size();
        prefix += name;
        prefix += '.';
        members();
        prefix.resize(outer);
    }

    static std::string
    number(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", v);
        return buf;
    }
};

} // namespace

std::uint64_t
MachineConfig::fingerprint() const
{
    FingerprintVisitor v;
    // Version tag: kFingerprintVersion is bumped when the field list
    // changes shape, so stale persisted fingerprints (the on-disk
    // result cache) can never alias a new layout.
    v.f.u64(0x5753464700ull + kFingerprintVersion); // "WSFG" NN
    forEachField(*this, v);
    return v.f.h;
}

std::optional<ConfigError>
MachineConfig::validate() const
{
    RangeVisitor ranges;
    forEachField(*this, ranges);
    if (ranges.error)
        return ranges.error;
    // numChips >= 1 holds here (its range), so the modulo is safe.
    if (numCores % numChips != 0)
        return ConfigError{"chips", "cores (" + std::to_string(numCores) +
                                        ") must divide evenly over chips (" +
                                        std::to_string(numChips) + ")"};
    if (mesh.numNodes != numCores)
        return ConfigError{"mesh.numNodes",
                           "mesh size must equal core count (use "
                           "MachineConfig::make)"};
    if (wireless.collisionCycles >= wireless.dataCycles)
        return ConfigError{"wireless.collisionCycles",
                           "collision penalty (" +
                               std::to_string(wireless.collisionCycles) +
                               ") must be below the full transfer time "
                               "wireless.dataCycles (" +
                               std::to_string(wireless.dataCycles) + ")"};
    return std::nullopt;
}

std::string
MachineConfig::describe() const
{
    std::string out = toString(kind);
    out += " cores=" + std::to_string(numCores);
    // Only off the default, so single-chip output stays byte-identical
    // to pre-multichip builds.
    if (numChips > 1) {
        out += " chips=" + std::to_string(numChips);
        // The bridge knobs change multi-chip behavior, so two sweep
        // points differing only in bridge config must not print
        // identical labels (they used to: the lossy-knob rule below
        // had not been applied to the bridge).
        char buf[128];
        std::snprintf(buf, sizeof(buf), " bridge=lat%u,w%u",
                      bridge.latencyCycles, bridge.widthBits);
        out += buf;
        if (bridge.lossPct > 0.0 || bridge.burst.enabled) {
            std::snprintf(
                buf, sizeof(buf),
                " bloss=%g%% back=%u,%u,%u", bridge.lossPct,
                bridge.ackTimeoutCycles, bridge.maxRetries,
                bridge.retryBackoffMaxExp);
            out += buf;
            if (bridge.burst.enabled) {
                std::snprintf(buf, sizeof(buf),
                              " bburst=g%g%%/b%g%%,pgb=%g,pbg=%g",
                              bridge.burst.goodLossPct,
                              bridge.burst.badLossPct,
                              bridge.burst.pGoodToBad,
                              bridge.burst.pBadToGood);
                out += buf;
            }
        }
    }
    out += " variant=";
    out += toString(variant);
    // Mentioned only off the default so pre-MAC-subsystem harness
    // output stays byte-identical on BRS configs.
    if (wireless.macKind != wireless::MacKind::Brs) {
        out += " mac=";
        out += toString(wireless.macKind);
    }
    // Likewise: the loss model only appears when enabled, keeping
    // ideal-channel harness output byte-identical to pre-loss builds.
    if (wireless.lossPct > 0.0 || wireless.berFromSnr) {
        // The retry knobs change behavior whenever the channel is
        // lossy, so two sweep points differing only in them must not
        // print identical labels.
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      " loss=%g%%%s ack=%u retries=%u boexp=%u",
                      wireless.lossPct, wireless.berFromSnr ? "+snr" : "",
                      wireless.ackTimeoutCycles, wireless.maxRetries,
                      wireless.retryBackoffMaxExp);
        out += buf;
    }
    // Burst and per-channel-profile knobs, likewise only off their
    // defaults (the i.i.d./flat-spectrum labels are unchanged).
    if (wireless.burst.enabled) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      " burst=g%g%%/b%g%%,pgb=%g,pbg=%g",
                      wireless.burst.goodLossPct,
                      wireless.burst.badLossPct, wireless.burst.pGoodToBad,
                      wireless.burst.pBadToGood);
        out += buf;
    }
    if (wireless.channelLossBaseDb != 0.0 ||
        wireless.channelLossStepDb != 0.0) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " chloss=%g+%gdB",
                      wireless.channelLossBaseDb,
                      wireless.channelLossStepDb);
        out += buf;
    }
    return out;
}

} // namespace wisync::core
