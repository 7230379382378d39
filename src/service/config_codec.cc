#include "service/config_codec.hh"

#include <charconv>
#include <limits>
#include <string_view>
#include <type_traits>

#include "core/machine.hh"
#include "sim/engine.hh"
#include "sim/fnv1a.hh"

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

constexpr core::ConfigKind kKinds[] = {
    core::ConfigKind::Baseline, core::ConfigKind::BaselinePlus,
    core::ConfigKind::WiSyncNoT, core::ConfigKind::WiSync};
constexpr core::Variant kVariants[] = {
    core::Variant::Default, core::Variant::SlowNet,
    core::Variant::SlowNetL2, core::Variant::FastNet,
    core::Variant::SlowBmem};
constexpr wireless::MacKind kMacs[] = {
    wireless::MacKind::Brs, wireless::MacKind::Token,
    wireless::MacKind::FuzzyToken, wireless::MacKind::Adaptive};
constexpr workloads::CasKernel kCasKernels[] = {
    workloads::CasKernel::Fifo, workloads::CasKernel::Lifo,
    workloads::CasKernel::Add};

const char *
toString(workloads::CasKernel k)
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

/** The member of @p values whose toString() is @p v's string. */
template <typename E, std::size_t N>
E
parseEnum(const Json &v, const std::string &path, std::size_t point,
          const E (&values)[N], const char *what)
{
    const std::string &s = asString(v, path, point);
    std::string expected;
    for (std::size_t i = 0; i < N; ++i) {
        if (s == toString(values[i]))
            return values[i];
        expected += i == 0 ? "" : i + 1 == N ? " or " : ", ";
        expected += toString(values[i]);
    }
    fail(path, point, std::string("unknown ") + what + " '" + s +
                          "' (expected " + expected + ")");
}

// ---- The forEachField visitors -----------------------------------

template <typename T>
void
parseValue(const Json &v, const std::string &path, std::size_t point,
           T &out)
{
    if constexpr (std::is_same_v<T, bool>)
        out = asBool(v, path, point);
    else if constexpr (std::is_same_v<T, double>)
        out = asDouble(v, path, point);
    else if constexpr (std::is_same_v<T, std::uint32_t>)
        out = asU32(v, path, point);
    else if constexpr (std::is_same_v<T, std::uint64_t>)
        out = asU64(v, path, point);
    else if constexpr (std::is_same_v<T, core::ConfigKind>)
        out = parseEnum(v, path, point, kKinds, "config kind");
    else if constexpr (std::is_same_v<T, core::Variant>)
        out = parseEnum(v, path, point, kVariants, "variant");
    else {
        static_assert(std::is_same_v<T, wireless::MacKind>,
                      "no JSON form for this field type");
        out = parseEnum(v, path, point, kMacs, "MAC kind");
    }
}

template <typename T>
void
appendValue(std::string &out, const T &v)
{
    if constexpr (std::is_same_v<T, bool>)
        out += v ? "true" : "false";
    else if constexpr (std::is_same_v<T, double>)
        out += jsonNumber(v);
    else if constexpr (std::is_enum_v<T>)
        out += jsonQuote(toString(v));
    else
        out += jsonNumber(std::uint64_t{v});
}

/**
 * Applies one JSON member to the wire entry of the same name at the
 * current nesting level; a group descends into its object, member by
 * member, so every key is dispatched in source order.
 */
struct MemberParser
{
    std::string_view key;
    const Json *value;
    /** Field path of the member being applied. */
    std::string path;
    std::size_t point;
    bool matched = false;

    template <typename T>
    void
    field(const char *name, T &member, const core::FieldSpec &spec)
    {
        if (matched || !spec.wire || key != name)
            return;
        matched = true;
        parseValue(*value, path, point, member);
    }

    template <typename Members>
    void
    group(const char *name, const core::FieldSpec &spec, Members &&members)
    {
        if (matched || !spec.wire || key != name)
            return;
        const std::string outer = path;
        for (const auto &[k, member] :
             asObject(*value, outer, point).object()) {
            key = k;
            value = &member;
            path = outer + "." + k;
            matched = false;
            members();
            if (!matched)
                fail(path, point, "unknown key '" + k + "'");
        }
        matched = true;
    }
};

void
parseMember(core::MachineConfig &cfg, const std::string &key,
            const Json &value, const std::string &path, std::size_t point)
{
    MemberParser parser{key, &value, path + "." + key, point};
    core::forEachField(cfg, parser);
    if (!parser.matched)
        fail(parser.path, point, "unknown key '" + key + "'");
}

/** Emits the wire entries as canonical JSON members. */
struct Serializer
{
    std::string out;
    /** Separator before the next member ("" opening an object). */
    const char *sep = "";

    template <typename T>
    void
    field(const char *name, const T &member, const core::FieldSpec &spec)
    {
        if (!spec.wire)
            return;
        key(name);
        appendValue(out, member);
    }

    template <typename Members>
    void
    group(const char *name, const core::FieldSpec &spec, Members &&members)
    {
        if (!spec.wire)
            return;
        key(name);
        out += '{';
        sep = "";
        members();
        out += '}';
        sep = ",";
    }

    void
    key(const char *name)
    {
        out += sep;
        out += '"';
        out += name;
        out += "\":";
        sep = ",";
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
    sim::Fnv1a f;
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
    sim::Fnv1a f;
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
    // on the same baseline the benches use. Duplicate keys resolve to
    // the first occurrence (find()), matching common JSON libraries.
    core::MachineConfig base;
    for (const char *key : {"kind", "cores", "variant"}) {
        if (const Json *member = obj.find(key); member != nullptr)
            parseMember(base, key, *member, path, point_index);
        else if (key != std::string_view("variant"))
            fail(path + "." + key, point_index, "missing required key");
    }
    // make() cannot build a zero-core machine at all.
    if (base.numCores == 0)
        fail(path + ".cores", point_index, "need at least one core");
    core::MachineConfig cfg =
        core::MachineConfig::make(base.kind, base.numCores, base.variant);

    for (const auto &[key, member] : obj.object()) {
        if (key != "kind" && key != "cores" && key != "variant")
            parseMember(cfg, key, member, path, point_index);
    }

    // A config Machine would refuse (fatal, killing a service process)
    // is a typed request error instead.
    if (const auto error = cfg.validate())
        fail(path + "." + error->field, point_index, error->message);
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
            spec.casKernel = parseEnum(member, sub, point_index,
                                       kCasKernels, "CAS kernel");
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
    Serializer s;
    s.out = "{";
    core::forEachField(cfg, s);
    s.out += "}";
    return std::move(s.out);
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
        out += ",\"kernel\":" + jsonQuote(toString(w.casKernel));
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
    Serializer s;
    s.out = "{";
    workloads::forEachCounter(
        r, [&](const char *name, const auto &member,
               workloads::CounterKind kind) {
            if (kind == workloads::CounterKind::Simulated)
                s.field(name, member, core::FieldSpec{});
        });
    s.out += "}";
    return std::move(s.out);
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
