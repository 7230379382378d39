/**
 * @file
 * Chip configuration: the paper's Tables 1, 2 and 6 as code.
 */

#ifndef WISYNC_CORE_MACHINE_CONFIG_HH
#define WISYNC_CORE_MACHINE_CONFIG_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "bm/bm_system.hh"
#include "mem/mem_system.hh"
#include "noc/chip_bridge.hh"
#include "noc/mesh.hh"
#include "wireless/data_channel.hh"

namespace wisync::core {

/** The four architecture configurations compared in Table 2. */
enum class ConfigKind
{
    /** Plain manycore: CAS locks + centralized barrier. */
    Baseline,
    /** + virtual-tree broadcast NoC, MCS locks, tournament barriers. */
    BaselinePlus,
    /** WiSync without the Tone channel. */
    WiSyncNoT,
    /** Full WiSync: Data + Tone channels. */
    WiSync,
};

/** The memory/network variants of Table 6 (sensitivity study). */
enum class Variant
{
    Default,  // L2 RT 6, BM RT 2, hop 4
    SlowNet,  // hop 6
    SlowNetL2, // hop 6, L2 RT 12
    FastNet,  // hop 2
    SlowBmem, // BM RT 4
};

const char *toString(ConfigKind kind);
const char *toString(Variant variant);

/** The first violation MachineConfig::validate() found. */
struct ConfigError
{
    /** Dotted field path, e.g. "wireless.burst.badLossPct". */
    std::string field;
    std::string message;
};

/**
 * Everything needed to build a Machine. Every field is listed once in
 * forEachField() below, which derives the service codec, fingerprint()
 * and validate(): adding a field means adding it to that list.
 */
struct MachineConfig
{
    ConfigKind kind = ConfigKind::WiSync;
    Variant variant = Variant::Default;
    std::uint32_t numCores = 64;
    /**
     * Chips in the package. numCores counts the whole machine and must
     * divide evenly; chip c owns the contiguous node range
     * [c * coresPerChip(), (c+1) * coresPerChip()). Each chip gets its
     * own BM replica group, tone channel and die geometry; the
     * FrequencyPlan maps chips onto data channels and the ChipBridge
     * carries global BM updates between chips. Behavioral, not
     * structural: reset() may change it freely on one machine.
     */
    std::uint32_t numChips = 1;
    /** Issue width of the 1 GHz OoO core (Table 1: 2-issue). */
    std::uint32_t issueWidth = 2;
    std::uint64_t seed = 42;

    mem::MemConfig mem;
    noc::MeshConfig mesh;
    wireless::WirelessConfig wireless;
    bm::BmConfig bm;
    noc::BridgeConfig bridge;

    std::uint32_t coresPerChip() const { return numCores / numChips; }
    std::uint32_t
    chipOf(sim::NodeId node) const
    {
        return node / coresPerChip();
    }

    bool
    hasWireless() const
    {
        return kind == ConfigKind::WiSyncNoT || kind == ConfigKind::WiSync;
    }
    bool hasTone() const { return kind == ConfigKind::WiSync; }

    /** Build a coherent config for @p kind / @p cores / @p variant. */
    static MachineConfig make(ConfigKind kind, std::uint32_t cores,
                              Variant variant = Variant::Default);

    /**
     * True when a Machine built from this config can be reused for
     * @p other via Machine::reset: the same structural geometry (core
     * count, cache/BM capacities, controller counts). The kind,
     * timing knobs, seed and issue width may differ freely — reset()
     * re-applies them (the wireless substrate is always built and
     * merely gated per kind).
     */
    bool compatibleShape(const MachineConfig &other) const;

    /**
     * Full field-wise equality over every knob, including the
     * sub-configs. Two equal configs simulate bit-identically (the
     * determinism contract), which is what makes the service result
     * cache exact.
     */
    bool operator==(const MachineConfig &) const = default;

    /**
     * Canonical 64-bit fingerprint of the whole config: FNV-1a over
     * every forEachField() entry, wire or not, in list order (one
     * fixed-width word each, doubles by bit pattern). Process-stable
     * and run-stable — no addresses, no unordered iteration — so it
     * can key the service ResultCache, name shard work items across
     * worker processes, and be compared between hosts. operator==
     * equal configs always fingerprint equal; the service additionally
     * verifies equality on cache hits so a (astronomically unlikely)
     * 64-bit collision degrades to a miss, never a wrong result.
     */
    std::uint64_t fingerprint() const;

    /**
     * Version of the fingerprint stream layout. Bumped whenever the
     * forEachField() list changes shape, so anything persisted under
     * an old layout (the on-disk result cache) can never alias a new
     * one. Folded into the stream's leading tag and into
     * service::CacheStore's file-format version.
     */
    static constexpr std::uint64_t kFingerprintVersion = 4;

    /**
     * Check every ranged forEachField() entry, then the cross-field
     * rules (cores divide evenly over chips, one mesh node per core).
     * Returns the first violation; nullopt when a Machine can be
     * built. The service codec rejects what this rejects, and Machine
     * refuses it.
     */
    std::optional<ConfigError> validate() const;

    /** Human-readable one-liner for harness output. */
    std::string describe() const;
};

/** How the service codec, fingerprint() and validate() treat one
 *  forEachField() entry. */
struct FieldSpec
{
    /** Part of the JSON wire form: parsed and canonically serialized.
     *  Off-wire fields are still fingerprinted and validated. */
    bool wire = true;
    /** Inclusive range validate() accepts (NaN never passes). */
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
};

inline constexpr FieldSpec kOffWire{.wire = false};
inline constexpr FieldSpec kAtLeastOne{.lo = 1.0};
inline constexpr FieldSpec kPercent{.lo = 0.0, .hi = 100.0};
inline constexpr FieldSpec kProbability{.lo = 0.0, .hi = 1.0};
/** Backoff waits are Cycle{1} << exp: wider than 63 is undefined. */
inline constexpr FieldSpec kShiftExp{.lo = 0.0, .hi = 63.0};

/** The Gilbert–Elliott knobs, shared by the wireless and bridge
 *  groups of forEachField(). */
template <typename Burst, typename V>
void
forEachBurstField(Burst &b, V &&v)
{
    v.field("enabled", b.enabled, {});
    v.field("goodLossPct", b.goodLossPct, kPercent);
    v.field("badLossPct", b.badLossPct, kPercent);
    v.field("pGoodToBad", b.pGoodToBad, kProbability);
    v.field("pBadToGood", b.pBadToGood, kProbability);
}

/**
 * The one list of MachineConfig fields. Calls
 * @p v.field(name, member, spec) per field and
 * @p v.group(name, spec, members) per sub-object, where members() visits
 * the group's entries. The JSON names and nesting are the service wire
 * form; the order is both the canonical JSON order (wire entries only)
 * and the fingerprint stream order (every entry).
 */
template <typename Cfg, typename V>
void
forEachField(Cfg &c, V &&v)
{
    v.field("kind", c.kind, {});
    v.field("cores", c.numCores, kAtLeastOne);
    v.field("variant", c.variant, {});
    v.field("chips", c.numChips, kAtLeastOne);
    v.field("issueWidth", c.issueWidth, kAtLeastOne);
    v.field("seed", c.seed, {});
    v.group("mem", kOffWire, [&] {
        v.field("lineBytes", c.mem.lineBytes, {});
        v.field("l1SizeBytes", c.mem.l1SizeBytes, {});
        v.field("l1Assoc", c.mem.l1Assoc, {});
        v.field("l1RtCycles", c.mem.l1RtCycles, kAtLeastOne);
        v.field("l2BankSizeBytes", c.mem.l2BankSizeBytes, {});
        v.field("l2Assoc", c.mem.l2Assoc, {});
        v.field("l2RtCycles", c.mem.l2RtCycles, {});
        v.field("dramRtCycles", c.mem.dramRtCycles, {});
        v.field("numMemCtrls", c.mem.numMemCtrls, {});
        v.field("dramOutstanding", c.mem.dramOutstanding, {});
        v.field("ctrlBits", c.mem.ctrlBits, {});
        v.field("dataBits", c.mem.dataBits, {});
    });
    v.group("mesh", kOffWire, [&] {
        v.field("numNodes", c.mesh.numNodes, {});
        v.field("hopCycles", c.mesh.hopCycles, kAtLeastOne);
        v.field("linkBits", c.mesh.linkBits, {});
        v.field("treeMulticast", c.mesh.treeMulticast, {});
    });
    v.group("wireless", FieldSpec{}, [&] {
        auto &w = c.wireless;
        v.field("mac", w.macKind, {});
        v.field("maxBackoffExp", w.maxBackoffExp, kShiftExp);
        v.field("tokenPassCycles", w.tokenPassCycles, {});
        v.field("tokenFrameBits", w.tokenFrameBits, {});
        v.field("tokenHoldCycles", w.tokenHoldCycles, {});
        v.field("adaptWindowEvents", w.adaptWindowEvents, {});
        v.field("adaptHiPct", w.adaptHiPct, {});
        v.field("adaptLoPct", w.adaptLoPct, {});
        v.field("lossPct", w.lossPct, kPercent);
        v.field("berFromSnr", w.berFromSnr, {});
        v.field("txPowerDbm", w.txPowerDbm, {});
        v.field("ackTimeoutCycles", w.ackTimeoutCycles, {});
        v.field("maxRetries", w.maxRetries, {});
        v.field("retryBackoffMaxExp", w.retryBackoffMaxExp, kShiftExp);
        v.group("burst", FieldSpec{},
                [&] { forEachBurstField(w.burst, v); });
        v.field("channelLossBaseDb", w.channelLossBaseDb, {});
        v.field("channelLossStepDb", w.channelLossStepDb, {});
        v.field("spectrumSlots", w.spectrumSlots, {});
        v.field("dataCycles", w.dataCycles, kOffWire);
        v.field("bulkCycles", w.bulkCycles, kOffWire);
        v.field("collisionCycles", w.collisionCycles, kOffWire);
    });
    v.group("bm", kOffWire, [&] {
        v.field("bmBytes", c.bm.bmBytes, {});
        v.field("bmRtCycles", c.bm.bmRtCycles, {});
        v.field("rmwModifyCycles", c.bm.rmwModifyCycles, {});
        v.field("allocSlots", c.bm.allocSlots, {});
    });
    v.group("bridge", FieldSpec{}, [&] {
        auto &b = c.bridge;
        v.field("latencyCycles", b.latencyCycles, {});
        v.field("widthBits", b.widthBits, kAtLeastOne);
        v.field("headerBits", b.headerBits, {});
        v.field("lossPct", b.lossPct, kPercent);
        v.group("burst", FieldSpec{},
                [&] { forEachBurstField(b.burst, v); });
        v.field("ackTimeoutCycles", b.ackTimeoutCycles, {});
        v.field("maxRetries", b.maxRetries, {});
        v.field("retryBackoffMaxExp", b.retryBackoffMaxExp, kShiftExp);
    });
}

} // namespace wisync::core

#endif // WISYNC_CORE_MACHINE_CONFIG_HH
