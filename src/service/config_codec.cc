#include "service/config_codec.hh"

#include <charconv>
#include <limits>

#include "core/machine.hh"
#include "sim/engine.hh"

namespace wisync::service {

namespace {

/** "points[3].config.wireless.lossPct" or just the path. */
std::string
describeField(const std::string &field, std::size_t point)
{
    if (point == ParseError::kNoPoint)
        return field;
    return field + " (point " + std::to_string(point) + ")";
}

[[noreturn]] void
fail(const std::string &field, std::size_t point, const std::string &msg)
{
    throw ParseError(field, point, msg);
}

// ---- Typed extraction with range checks --------------------------

std::uint64_t
asU64(const Json &v, const std::string &path, std::size_t point)
{
    if (!v.isNumber())
        fail(path, point,
             std::string("expected an unsigned integer, got ") +
                 v.typeName());
    const std::string &raw = v.rawNumber();
    // Reject signs, fractions and exponents outright: "2.5 cores" and
    // "-1 retries" must be errors, and an exponent form would lose
    // 64-bit precision through the double.
    if (raw.find_first_of(".eE-") != std::string::npos)
        fail(path, point, "expected an unsigned integer, got '" + raw +
                              "'");
    std::uint64_t out = 0;
    const char *first = raw.data();
    const char *last = first + raw.size();
    const auto [end, ec] = std::from_chars(first, last, out);
    if (ec != std::errc() || end != last)
        fail(path, point, "unsigned integer out of range: '" + raw +
                              "'");
    return out;
}

std::uint32_t
asU32(const Json &v, const std::string &path, std::size_t point)
{
    const std::uint64_t wide = asU64(v, path, point);
    if (wide > std::numeric_limits<std::uint32_t>::max())
        fail(path, point, "value does not fit in 32 bits: " +
                              std::to_string(wide));
    return static_cast<std::uint32_t>(wide);
}

double
asDouble(const Json &v, const std::string &path, std::size_t point)
{
    if (!v.isNumber())
        fail(path, point, std::string("expected a number, got ") +
                              v.typeName());
    return v.number();
}

bool
asBool(const Json &v, const std::string &path, std::size_t point)
{
    if (!v.isBool())
        fail(path, point, std::string("expected true/false, got ") +
                              v.typeName());
    return v.boolean();
}

const std::string &
asString(const Json &v, const std::string &path, std::size_t point)
{
    if (!v.isString())
        fail(path, point, std::string("expected a string, got ") +
                              v.typeName());
    return v.str();
}

const Json &
asObject(const Json &v, const std::string &path, std::size_t point)
{
    if (!v.isObject())
        fail(path, point, std::string("expected an object, got ") +
                              v.typeName());
    return v;
}

// ---- Enum spellings (exactly the toString() forms) ---------------

core::ConfigKind
parseKind(const Json &v, const std::string &path, std::size_t point)
{
    const std::string &s = asString(v, path, point);
    for (const auto k :
         {core::ConfigKind::Baseline, core::ConfigKind::BaselinePlus,
          core::ConfigKind::WiSyncNoT, core::ConfigKind::WiSync}) {
        if (s == core::toString(k))
            return k;
    }
    fail(path, point,
         "unknown config kind '" + s +
             "' (expected Baseline, Baseline+, WiSyncNoT or WiSync)");
}

core::Variant
parseVariant(const Json &v, const std::string &path, std::size_t point)
{
    const std::string &s = asString(v, path, point);
    for (const auto k :
         {core::Variant::Default, core::Variant::SlowNet,
          core::Variant::SlowNetL2, core::Variant::FastNet,
          core::Variant::SlowBmem}) {
        if (s == core::toString(k))
            return k;
    }
    fail(path, point,
         "unknown variant '" + s +
             "' (expected Default, SlowNet, SlowNet+L2, FastNet or "
             "SlowBMEM)");
}

wireless::MacKind
parseMac(const Json &v, const std::string &path, std::size_t point)
{
    const std::string &s = asString(v, path, point);
    for (const auto k :
         {wireless::MacKind::Brs, wireless::MacKind::Token,
          wireless::MacKind::FuzzyToken, wireless::MacKind::Adaptive}) {
        if (s == wireless::toString(k))
            return k;
    }
    fail(path, point,
         "unknown MAC kind '" + s +
             "' (expected BRS, Token, FuzzyToken or Adaptive)");
}

const char *
casKernelName(workloads::CasKernel k)
{
    switch (k) {
      case workloads::CasKernel::Fifo:
        return "fifo";
      case workloads::CasKernel::Lifo:
        return "lifo";
      case workloads::CasKernel::Add:
        return "add";
    }
    return "?";
}

workloads::CasKernel
parseCasKernel(const Json &v, const std::string &path, std::size_t point)
{
    const std::string &s = asString(v, path, point);
    for (const auto k :
         {workloads::CasKernel::Fifo, workloads::CasKernel::Lifo,
          workloads::CasKernel::Add}) {
        if (s == casKernelName(k))
            return k;
    }
    fail(path, point,
         "unknown CAS kernel '" + s + "' (expected fifo, lifo or add)");
}

// ---- Sub-object parsers ------------------------------------------

/** Reject @p v outside [0, hi] (NaN too): the channel models assert
 *  these ranges, and a client must get an error, not a dead daemon. */
void
requireWithin(double v, double hi, const std::string &path,
              std::size_t point, const char *message)
{
    if (!(v >= 0.0 && v <= hi))
        fail(path, point, message);
}

constexpr const char *kPctRange = "loss percentage must be within [0, 100]";
constexpr const char *kProbRange = "probability must be within [0, 1]";

/** Backoff waits are Cycle{1} << exp: wider than 63 is undefined. */
void
requireShiftable(std::uint32_t exp, const std::string &path,
                 std::size_t point)
{
    if (exp > 63)
        fail(path, point, "backoff exponent must be at most 63, got " +
                              std::to_string(exp));
}

void
parseBurst(wireless::BurstParams &burst, const Json &v,
           const std::string &path, std::size_t point)
{
    for (const auto &[key, member] : asObject(v, path, point).object()) {
        const std::string sub = path + "." + key;
        if (key == "enabled")
            burst.enabled = asBool(member, sub, point);
        else if (key == "goodLossPct")
            burst.goodLossPct = asDouble(member, sub, point);
        else if (key == "badLossPct")
            burst.badLossPct = asDouble(member, sub, point);
        else if (key == "pGoodToBad")
            burst.pGoodToBad = asDouble(member, sub, point);
        else if (key == "pBadToGood")
            burst.pBadToGood = asDouble(member, sub, point);
        else
            fail(sub, point, "unknown key '" + key + "'");
    }
    requireWithin(burst.goodLossPct, 100.0, path + ".goodLossPct", point,
                  kPctRange);
    requireWithin(burst.badLossPct, 100.0, path + ".badLossPct", point,
                  kPctRange);
    requireWithin(burst.pGoodToBad, 1.0, path + ".pGoodToBad", point,
                  kProbRange);
    requireWithin(burst.pBadToGood, 1.0, path + ".pBadToGood", point,
                  kProbRange);
}

void
parseWireless(wireless::WirelessConfig &w, const Json &v,
              const std::string &path, std::size_t point)
{
    for (const auto &[key, member] : asObject(v, path, point).object()) {
        const std::string sub = path + "." + key;
        if (key == "mac")
            w.macKind = parseMac(member, sub, point);
        else if (key == "maxBackoffExp")
            w.maxBackoffExp = asU32(member, sub, point);
        else if (key == "tokenPassCycles")
            w.tokenPassCycles = asU32(member, sub, point);
        else if (key == "tokenFrameBits")
            w.tokenFrameBits = asU32(member, sub, point);
        else if (key == "tokenHoldCycles")
            w.tokenHoldCycles = asU32(member, sub, point);
        else if (key == "adaptWindowEvents")
            w.adaptWindowEvents = asU32(member, sub, point);
        else if (key == "adaptHiPct")
            w.adaptHiPct = asU32(member, sub, point);
        else if (key == "adaptLoPct")
            w.adaptLoPct = asU32(member, sub, point);
        else if (key == "lossPct")
            w.lossPct = asDouble(member, sub, point);
        else if (key == "berFromSnr")
            w.berFromSnr = asBool(member, sub, point);
        else if (key == "txPowerDbm")
            w.txPowerDbm = asDouble(member, sub, point);
        else if (key == "ackTimeoutCycles")
            w.ackTimeoutCycles = asU32(member, sub, point);
        else if (key == "maxRetries")
            w.maxRetries = asU32(member, sub, point);
        else if (key == "retryBackoffMaxExp")
            w.retryBackoffMaxExp = asU32(member, sub, point);
        else if (key == "burst")
            parseBurst(w.burst, member, sub, point);
        else if (key == "channelLossBaseDb")
            w.channelLossBaseDb = asDouble(member, sub, point);
        else if (key == "channelLossStepDb")
            w.channelLossStepDb = asDouble(member, sub, point);
        else if (key == "spectrumSlots")
            w.spectrumSlots = asU32(member, sub, point);
        else
            fail(sub, point, "unknown key '" + key + "'");
    }
    requireWithin(w.lossPct, 100.0, path + ".lossPct", point, kPctRange);
    requireShiftable(w.maxBackoffExp, path + ".maxBackoffExp", point);
    requireShiftable(w.retryBackoffMaxExp, path + ".retryBackoffMaxExp",
                     point);
}

void
parseBridge(noc::BridgeConfig &b, const Json &v, const std::string &path,
            std::size_t point)
{
    for (const auto &[key, member] : asObject(v, path, point).object()) {
        const std::string sub = path + "." + key;
        if (key == "latencyCycles")
            b.latencyCycles = asU64(member, sub, point);
        else if (key == "widthBits")
            b.widthBits = asU32(member, sub, point);
        else if (key == "headerBits")
            b.headerBits = asU32(member, sub, point);
        else if (key == "lossPct")
            b.lossPct = asDouble(member, sub, point);
        else if (key == "burst")
            parseBurst(b.burst, member, sub, point);
        else if (key == "ackTimeoutCycles")
            b.ackTimeoutCycles = asU64(member, sub, point);
        else if (key == "maxRetries")
            b.maxRetries = asU32(member, sub, point);
        else if (key == "retryBackoffMaxExp")
            b.retryBackoffMaxExp = asU32(member, sub, point);
        else
            fail(sub, point, "unknown key '" + key + "'");
    }
    requireWithin(b.lossPct, 100.0, path + ".lossPct", point, kPctRange);
    requireShiftable(b.retryBackoffMaxExp, path + ".retryBackoffMaxExp",
                     point);
    if (b.widthBits == 0)
        fail(path + ".widthBits", point,
             "bridge width must be at least 1 bit per cycle");
}

/** Same FNV-1a stream discipline as MachineConfig::fingerprint(). */
struct Fnv1a
{
    std::uint64_t h = 0xCBF29CE484222325ull;

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xFF;
            h *= 0x100000001B3ull;
        }
    }
};

} // namespace

ParseError::ParseError(std::string field, std::size_t point_index,
                       const std::string &message)
    : std::runtime_error(describeField(field, point_index) + ": " +
                         message),
      field_(std::move(field)), pointIndex_(point_index)
{}

std::uint64_t
WorkloadSpec::fingerprint() const
{
    Fnv1a f;
    // "WSWF" tag + stream version (v2 added maxCycles).
    f.u64(0x5753465700ull + kFingerprintVersion);
    f.u64(static_cast<std::uint64_t>(kind));
    switch (kind) {
      case Kind::TightLoop:
        f.u64(tightLoop.iterations);
        f.u64(tightLoop.arrayElems);
        f.u64(tightLoop.runLimit);
        break;
      case Kind::Cas:
        f.u64(static_cast<std::uint64_t>(casKernel));
        f.u64(cas.criticalSectionInstr);
        f.u64(cas.duration);
        break;
    }
    f.u64(maxCycles);
    return f.h;
}

std::uint64_t
WorkloadSpec::lengthEstimate() const
{
    std::uint64_t length = 1;
    switch (kind) {
      case Kind::TightLoop:
        length = tightLoop.lengthEstimate();
        break;
      case Kind::Cas:
        length = cas.lengthEstimate();
        break;
    }
    // A budget caps the point regardless of its nominal length.
    if (maxCycles != 0 && maxCycles < length)
        length = maxCycles;
    return length == 0 ? 1 : length;
}

DeadlineExceeded::DeadlineExceeded(std::uint64_t max_cycles,
                                   std::uint64_t at_cycle)
    : std::runtime_error("DeadlineExceeded: maxCycles=" +
                         std::to_string(max_cycles) +
                         " exhausted at cycle " +
                         std::to_string(at_cycle) +
                         " with work still pending"),
      maxCycles_(max_cycles), atCycle_(at_cycle)
{}

std::uint64_t
RequestPoint::fingerprint() const
{
    // Order the two halves through one stream so (config, workload)
    // can never alias (workload, config).
    Fnv1a f;
    f.u64(config.fingerprint());
    f.u64(workload.fingerprint());
    return f.h;
}

core::MachineConfig
ConfigCodec::parseConfig(const Json &v, std::size_t point_index,
                         const std::string &path)
{
    const Json &obj = asObject(v, path, point_index);

    // kind/cores/variant first: make() derives the variant's timing
    // knobs (hop cycles, L2/BM round trips), so overrides below land
    // on the same baseline the benches use.
    const Json *kind = obj.find("kind");
    if (kind == nullptr)
        fail(path + ".kind", point_index, "missing required key");
    const Json *cores = obj.find("cores");
    if (cores == nullptr)
        fail(path + ".cores", point_index, "missing required key");
    core::Variant variant = core::Variant::Default;
    if (const Json *var = obj.find("variant"); var != nullptr)
        variant = parseVariant(*var, path + ".variant", point_index);

    const std::uint32_t n = asU32(*cores, path + ".cores", point_index);
    if (n == 0)
        fail(path + ".cores", point_index, "need at least one core");
    core::MachineConfig cfg = core::MachineConfig::make(
        parseKind(*kind, path + ".kind", point_index), n, variant);

    for (const auto &[key, member] : obj.object()) {
        const std::string sub = path + "." + key;
        if (key == "kind" || key == "cores" || key == "variant") {
            // Applied above. Duplicate keys resolve to the first
            // occurrence (find()), matching common JSON libraries.
        } else if (key == "chips") {
            cfg.numChips = asU32(member, sub, point_index);
        } else if (key == "issueWidth") {
            cfg.issueWidth = asU32(member, sub, point_index);
        } else if (key == "seed") {
            cfg.seed = asU64(member, sub, point_index);
        } else if (key == "wireless") {
            parseWireless(cfg.wireless, member, sub, point_index);
        } else if (key == "bridge") {
            parseBridge(cfg.bridge, member, sub, point_index);
        } else {
            fail(sub, point_index, "unknown key '" + key + "'");
        }
    }

    // Structural validity: a bad tiling would WISYNC_FATAL inside the
    // Machine constructor, which kills a service process. Reject it
    // as a typed request error instead.
    if (cfg.numChips == 0)
        fail(path + ".chips", point_index, "need at least one chip");
    if (cfg.numCores % cfg.numChips != 0)
        fail(path + ".chips", point_index,
             "cores (" + std::to_string(cfg.numCores) +
                 ") must divide evenly over chips (" +
                 std::to_string(cfg.numChips) + ")");
    if (cfg.issueWidth == 0)
        fail(path + ".issueWidth", point_index,
             "issue width must be at least 1");
    return cfg;
}

WorkloadSpec
ConfigCodec::parseWorkload(const Json &v, std::size_t point_index,
                           const std::string &path)
{
    const Json &obj = asObject(v, path, point_index);
    WorkloadSpec spec;

    const Json *kind = obj.find("kind");
    if (kind == nullptr)
        fail(path + ".kind", point_index, "missing required key");
    const std::string &k = asString(*kind, path + ".kind", point_index);
    if (k == "tightloop")
        spec.kind = WorkloadSpec::Kind::TightLoop;
    else if (k == "cas")
        spec.kind = WorkloadSpec::Kind::Cas;
    else
        fail(path + ".kind", point_index,
             "unknown workload '" + k + "' (expected tightloop or cas)");

    for (const auto &[key, member] : obj.object()) {
        const std::string sub = path + "." + key;
        if (key == "kind") {
            continue;
        } else if (key == "maxCycles") {
            // Kind-independent: the budget bounds the whole point.
            spec.maxCycles = asU64(member, sub, point_index);
        } else if (spec.kind == WorkloadSpec::Kind::TightLoop &&
                   key == "iterations") {
            spec.tightLoop.iterations = asU32(member, sub, point_index);
        } else if (spec.kind == WorkloadSpec::Kind::TightLoop &&
                   key == "arrayElems") {
            spec.tightLoop.arrayElems = asU32(member, sub, point_index);
        } else if (spec.kind == WorkloadSpec::Kind::TightLoop &&
                   key == "runLimit") {
            spec.tightLoop.runLimit = asU64(member, sub, point_index);
        } else if (spec.kind == WorkloadSpec::Kind::Cas &&
                   key == "kernel") {
            spec.casKernel = parseCasKernel(member, sub, point_index);
        } else if (spec.kind == WorkloadSpec::Kind::Cas &&
                   key == "criticalSectionInstr") {
            spec.cas.criticalSectionInstr =
                asU32(member, sub, point_index);
        } else if (spec.kind == WorkloadSpec::Kind::Cas &&
                   key == "duration") {
            spec.cas.duration = asU64(member, sub, point_index);
        } else {
            fail(sub, point_index,
                 "unknown key '" + key + "' for workload '" + k + "'");
        }
    }
    return spec;
}

SweepRequest
ConfigCodec::parseRequest(const std::string &json_text)
{
    Json doc;
    try {
        doc = Json::parse(json_text);
    } catch (const JsonError &e) {
        fail("<request>", ParseError::kNoPoint, e.what());
    }
    const Json &obj = asObject(doc, "<request>", ParseError::kNoPoint);

    const Json *points = nullptr;
    for (const auto &[key, member] : obj.object()) {
        if (key == "points")
            points = &member;
        else
            fail(key, ParseError::kNoPoint, "unknown key '" + key + "'");
    }
    if (points == nullptr)
        fail("points", ParseError::kNoPoint, "missing required key");
    if (!points->isArray())
        fail("points", ParseError::kNoPoint,
             std::string("expected an array, got ") +
                 points->typeName());

    SweepRequest request;
    request.points.reserve(points->array().size());
    for (std::size_t i = 0; i < points->array().size(); ++i) {
        const Json &pv = points->array()[i];
        const std::string base = "points[" + std::to_string(i) + "]";
        const Json &pobj = asObject(pv, base, i);
        RequestPoint point;
        const Json *config = nullptr;
        const Json *workload = nullptr;
        for (const auto &[key, member] : pobj.object()) {
            if (key == "config")
                config = &member;
            else if (key == "workload")
                workload = &member;
            else
                fail(base + "." + key, i, "unknown key '" + key + "'");
        }
        if (config == nullptr)
            fail(base + ".config", i, "missing required key");
        point.config = parseConfig(*config, i, base + ".config");
        if (workload != nullptr)
            point.workload =
                parseWorkload(*workload, i, base + ".workload");
        request.points.push_back(std::move(point));
    }
    return request;
}

std::string
ConfigCodec::serialize(const core::MachineConfig &cfg)
{
    std::string out = "{";
    out += "\"kind\":" + jsonQuote(core::toString(cfg.kind));
    out += ",\"cores\":" + jsonNumber(std::uint64_t(cfg.numCores));
    out += ",\"variant\":" + jsonQuote(core::toString(cfg.variant));
    out += ",\"chips\":" + jsonNumber(std::uint64_t(cfg.numChips));
    out += ",\"issueWidth\":" + jsonNumber(std::uint64_t(cfg.issueWidth));
    out += ",\"seed\":" + jsonNumber(cfg.seed);

    const auto &w = cfg.wireless;
    out += ",\"wireless\":{";
    out += "\"mac\":" + jsonQuote(wireless::toString(w.macKind));
    out += ",\"maxBackoffExp\":" +
           jsonNumber(std::uint64_t(w.maxBackoffExp));
    out += ",\"tokenPassCycles\":" +
           jsonNumber(std::uint64_t(w.tokenPassCycles));
    out += ",\"tokenFrameBits\":" +
           jsonNumber(std::uint64_t(w.tokenFrameBits));
    out += ",\"tokenHoldCycles\":" +
           jsonNumber(std::uint64_t(w.tokenHoldCycles));
    out += ",\"adaptWindowEvents\":" +
           jsonNumber(std::uint64_t(w.adaptWindowEvents));
    out += ",\"adaptHiPct\":" + jsonNumber(std::uint64_t(w.adaptHiPct));
    out += ",\"adaptLoPct\":" + jsonNumber(std::uint64_t(w.adaptLoPct));
    out += ",\"lossPct\":" + jsonNumber(w.lossPct);
    out += ",\"berFromSnr\":" + std::string(w.berFromSnr ? "true"
                                                         : "false");
    out += ",\"txPowerDbm\":" + jsonNumber(w.txPowerDbm);
    out += ",\"ackTimeoutCycles\":" +
           jsonNumber(std::uint64_t(w.ackTimeoutCycles));
    out += ",\"maxRetries\":" + jsonNumber(std::uint64_t(w.maxRetries));
    out += ",\"retryBackoffMaxExp\":" +
           jsonNumber(std::uint64_t(w.retryBackoffMaxExp));
    out += ",\"burst\":{";
    out += "\"enabled\":" + std::string(w.burst.enabled ? "true"
                                                        : "false");
    out += ",\"goodLossPct\":" + jsonNumber(w.burst.goodLossPct);
    out += ",\"badLossPct\":" + jsonNumber(w.burst.badLossPct);
    out += ",\"pGoodToBad\":" + jsonNumber(w.burst.pGoodToBad);
    out += ",\"pBadToGood\":" + jsonNumber(w.burst.pBadToGood);
    out += "}";
    out += ",\"channelLossBaseDb\":" + jsonNumber(w.channelLossBaseDb);
    out += ",\"channelLossStepDb\":" + jsonNumber(w.channelLossStepDb);
    out += ",\"spectrumSlots\":" +
           jsonNumber(std::uint64_t(w.spectrumSlots));
    out += "}";

    const auto &b = cfg.bridge;
    out += ",\"bridge\":{";
    out += "\"latencyCycles\":" + jsonNumber(b.latencyCycles);
    out += ",\"widthBits\":" + jsonNumber(std::uint64_t(b.widthBits));
    out += ",\"headerBits\":" + jsonNumber(std::uint64_t(b.headerBits));
    out += ",\"lossPct\":" + jsonNumber(b.lossPct);
    out += ",\"burst\":{";
    out += "\"enabled\":" + std::string(b.burst.enabled ? "true"
                                                        : "false");
    out += ",\"goodLossPct\":" + jsonNumber(b.burst.goodLossPct);
    out += ",\"badLossPct\":" + jsonNumber(b.burst.badLossPct);
    out += ",\"pGoodToBad\":" + jsonNumber(b.burst.pGoodToBad);
    out += ",\"pBadToGood\":" + jsonNumber(b.burst.pBadToGood);
    out += "}";
    out += ",\"ackTimeoutCycles\":" + jsonNumber(b.ackTimeoutCycles);
    out += ",\"maxRetries\":" + jsonNumber(std::uint64_t(b.maxRetries));
    out += ",\"retryBackoffMaxExp\":" +
           jsonNumber(std::uint64_t(b.retryBackoffMaxExp));
    out += "}";

    out += "}";
    return out;
}

std::string
ConfigCodec::serialize(const WorkloadSpec &w)
{
    std::string out = "{";
    switch (w.kind) {
      case WorkloadSpec::Kind::TightLoop:
        out += "\"kind\":\"tightloop\"";
        out += ",\"iterations\":" +
               jsonNumber(std::uint64_t(w.tightLoop.iterations));
        out += ",\"arrayElems\":" +
               jsonNumber(std::uint64_t(w.tightLoop.arrayElems));
        out += ",\"runLimit\":" + jsonNumber(w.tightLoop.runLimit);
        break;
      case WorkloadSpec::Kind::Cas:
        out += "\"kind\":\"cas\"";
        out += ",\"kernel\":" + jsonQuote(casKernelName(w.casKernel));
        out += ",\"criticalSectionInstr\":" +
               jsonNumber(std::uint64_t(w.cas.criticalSectionInstr));
        out += ",\"duration\":" + jsonNumber(w.cas.duration);
        break;
    }
    out += ",\"maxCycles\":" + jsonNumber(w.maxCycles);
    out += "}";
    return out;
}

std::string
ConfigCodec::serialize(const RequestPoint &point)
{
    return "{\"config\":" + serialize(point.config) +
           ",\"workload\":" + serialize(point.workload) + "}";
}

std::string
ConfigCodec::serializeRequest(const SweepRequest &request)
{
    std::string out = "{\"points\":[";
    for (std::size_t i = 0; i < request.points.size(); ++i) {
        if (i != 0)
            out += ",";
        out += serialize(request.points[i]);
    }
    out += "]}";
    return out;
}

std::string
ConfigCodec::serializeResult(const workloads::KernelResult &r)
{
    std::string out = "{";
    out += "\"cycles\":" + jsonNumber(r.cycles);
    out += ",\"completed\":" + std::string(r.completed ? "true"
                                                       : "false");
    out += ",\"operations\":" + jsonNumber(r.operations);
    out += ",\"dataChannelUtilisation\":" +
           jsonNumber(r.dataChannelUtilisation);
    out += ",\"collisions\":" + jsonNumber(r.collisions);
    out += ",\"macBackoffCycles\":" + jsonNumber(r.macBackoffCycles);
    out += ",\"macTokenWaits\":" + jsonNumber(r.macTokenWaits);
    out += ",\"macTokenRotations\":" + jsonNumber(r.macTokenRotations);
    out += ",\"macModeSwitches\":" + jsonNumber(r.macModeSwitches);
    out += ",\"wirelessDrops\":" + jsonNumber(r.wirelessDrops);
    out += ",\"macAckTimeouts\":" + jsonNumber(r.macAckTimeouts);
    out += ",\"macRetransmits\":" + jsonNumber(r.macRetransmits);
    out += ",\"macGiveups\":" + jsonNumber(r.macGiveups);
    out += ",\"bridgeFrames\":" + jsonNumber(r.bridgeFrames);
    out += ",\"bridgeBusyCycles\":" + jsonNumber(r.bridgeBusyCycles);
    out += ",\"staleRmwAborts\":" + jsonNumber(r.staleRmwAborts);
    out += ",\"bridgeDrops\":" + jsonNumber(r.bridgeDrops);
    out += ",\"bridgeAckTimeouts\":" + jsonNumber(r.bridgeAckTimeouts);
    out += ",\"bridgeRetransmits\":" + jsonNumber(r.bridgeRetransmits);
    out += ",\"bridgeGiveups\":" + jsonNumber(r.bridgeGiveups);
    out += "}";
    return out;
}

workloads::KernelResult
runWorkload(const WorkloadSpec &spec, core::Machine &machine)
{
    sim::Engine &engine = machine.engine();
    if (spec.maxCycles != 0)
        engine.setDeadline(spec.maxCycles);
    // The machine goes back to a pooled-reuse path after this point; a
    // deadline leaking past the run would silently truncate whatever
    // point the machine serves next.
    struct DisarmOnExit
    {
        sim::Engine &engine;
        ~DisarmOnExit() { engine.clearDeadline(); }
    } disarm{engine};

    workloads::KernelResult result;
    switch (spec.kind) {
      case WorkloadSpec::Kind::TightLoop:
        result = workloads::runTightLoopOn(machine, spec.tightLoop);
        break;
      case WorkloadSpec::Kind::Cas:
        result = workloads::runCasKernelOn(spec.casKernel, machine,
                                           spec.cas);
        break;
      default:
        fail("workload.kind", ParseError::kNoPoint,
             "unhandled workload kind");
    }
    if (spec.maxCycles != 0 && engine.deadlineHit())
        throw DeadlineExceeded(spec.maxCycles, engine.now());
    return result;
}

} // namespace wisync::service
