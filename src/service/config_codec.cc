#include "service/config_codec.hh"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>

#include "core/machine.hh"
#include "sim/engine.hh"
#include "sim/fnv1a.hh"

namespace wisync::service {

namespace {

/**
 * Where a value sits in a request: a chain of names from the object
 * the caller named ("points[3].config") down to the member. Spelled
 * out as a string only when an error is thrown.
 */
struct FieldPath
{
    const FieldPath *parent = nullptr;
    std::string_view name;
    /** Element index appended as "[i]" (npos: none). */
    std::size_t index = std::string::npos;

    std::string
    str() const
    {
        std::string out;
        if (parent != nullptr) {
            out = parent->str();
            out += '.';
        }
        out += name;
        if (index != std::string::npos) {
            out += '[';
            out += std::to_string(index);
            out += ']';
        }
        return out;
    }
};

/** "points[3].config.wireless.lossPct" or just the path. */
std::string
describeField(const std::string &field, std::size_t point)
{
    if (point == ParseError::kNoPoint)
        return field;
    return field + " (point " + std::to_string(point) + ")";
}

[[noreturn]] void
fail(const FieldPath &field, std::size_t point, const std::string &msg)
{
    throw ParseError(field.str(), point, msg);
}

// ---- Typed extraction with range checks --------------------------

std::uint64_t
asU64(const Json &v, const FieldPath &path, std::size_t point)
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
asU32(const Json &v, const FieldPath &path, std::size_t point)
{
    const std::uint64_t wide = asU64(v, path, point);
    if (wide > std::numeric_limits<std::uint32_t>::max())
        fail(path, point, "value does not fit in 32 bits: " +
                              std::to_string(wide));
    return static_cast<std::uint32_t>(wide);
}

double
asDouble(const Json &v, const FieldPath &path, std::size_t point)
{
    if (!v.isNumber())
        fail(path, point, std::string("expected a number, got ") +
                              v.typeName());
    return v.number();
}

bool
asBool(const Json &v, const FieldPath &path, std::size_t point)
{
    if (!v.isBool())
        fail(path, point, std::string("expected true/false, got ") +
                              v.typeName());
    return v.boolean();
}

const std::string &
asString(const Json &v, const FieldPath &path, std::size_t point)
{
    if (!v.isString())
        fail(path, point, std::string("expected a string, got ") +
                              v.typeName());
    return v.str();
}

const Json &
asObject(const Json &v, const FieldPath &path, std::size_t point)
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
parseEnum(const Json &v, const FieldPath &path, std::size_t point,
          const E (&values)[N], const char *what)
{
    const std::string &s = asString(v, path, point);
    for (std::size_t i = 0; i < N; ++i) {
        if (s == toString(values[i]))
            return values[i];
    }
    std::string expected;
    for (std::size_t i = 0; i < N; ++i) {
        expected += i == 0 ? "" : i + 1 == N ? " or " : ", ";
        expected += toString(values[i]);
    }
    fail(path, point, std::string("unknown ") + what + " '" + s +
                          "' (expected " + expected + ")");
}

// ---- The wire table, derived from forEachField -------------------

template <typename T>
void
parseValue(const Json &v, const FieldPath &path, std::size_t point,
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

struct WireEntry;

/**
 * One nesting level of the wire table: its entries in forEachField
 * order, so canonical text finds each member at the cursor, plus an
 * index by name for members in any other order.
 */
struct WireLevel
{
    std::vector<WireEntry> entries;
    std::vector<std::size_t> byName;

    /** The entry named @p key, trying @p next first and leaving it
     *  just past the match; nullptr if there is none. */
    const WireEntry *find(std::string_view key, std::size_t &next) const;
};

/**
 * One wire entry of forEachField: a field, parsed into the member at
 * byte @p offset of a MachineConfig, or a group.
 */
struct WireEntry
{
    std::string_view name;
    std::size_t offset = 0;
    void (*parse)(const Json &, const FieldPath &, std::size_t,
                  void *) = nullptr;
    /** A group's entries (fields: none). */
    WireLevel members;
};

const WireEntry *
WireLevel::find(std::string_view key, std::size_t &next) const
{
    if (next < entries.size() && entries[next].name == key)
        return &entries[next++];
    const auto it = std::lower_bound(
        byName.begin(), byName.end(), key,
        [&](std::size_t i, std::string_view k) {
            return entries[i].name < k;
        });
    if (it == byName.end() || entries[*it].name != key)
        return nullptr;
    next = *it + 1;
    return &entries[*it];
}

/** Fills one level's entries per wire forEachField entry. */
struct TableBuilder
{
    const core::MachineConfig &origin;
    WireLevel *level;

    template <typename T>
    void
    field(const char *name, const T &member, const core::FieldSpec &spec)
    {
        if (!spec.wire)
            return;
        level->entries.push_back(
            {name,
             static_cast<std::size_t>(
                 reinterpret_cast<const std::byte *>(&member) -
                 reinterpret_cast<const std::byte *>(&origin)),
             [](const Json &v, const FieldPath &path, std::size_t point,
                void *out) {
                 parseValue(v, path, point, *static_cast<T *>(out));
             },
             {}});
    }

    template <typename Members>
    void
    group(const char *name, const core::FieldSpec &spec, Members &&members)
    {
        if (!spec.wire)
            return;
        WireEntry g{name, 0, nullptr, {}};
        WireLevel *outer = level;
        level = &g.members;
        members();
        level = outer;
        index(g.members);
        level->entries.push_back(std::move(g));
    }

    static void
    index(WireLevel &level)
    {
        level.byName.resize(level.entries.size());
        for (std::size_t i = 0; i < level.byName.size(); ++i)
            level.byName[i] = i;
        std::sort(level.byName.begin(), level.byName.end(),
                  [&](std::size_t a, std::size_t b) {
                      return level.entries[a].name < level.entries[b].name;
                  });
    }
};

/** The top level of the wire table (built on first use). */
const WireLevel &
wireTable()
{
    static const WireLevel table = [] {
        const core::MachineConfig origin;
        WireLevel top;
        TableBuilder builder{origin, &top};
        core::forEachField(origin, builder);
        TableBuilder::index(top);
        return top;
    }();
    return table;
}

/**
 * Apply one JSON member to @p cfg through the entry of the same name
 * in @p level (@p next: the level's lookup cursor); a group applies
 * its object member by member, so every key is dispatched in source
 * order.
 */
void
applyMember(core::MachineConfig &cfg, const WireLevel &level,
            std::size_t &next, std::string_view key, const Json &value,
            const FieldPath &path, std::size_t point)
{
    const WireEntry *entry = level.find(key, next);
    if (entry == nullptr)
        fail(path, point, "unknown key '" + std::string(key) + "'");
    if (entry->parse != nullptr) {
        entry->parse(value, path, point,
                     reinterpret_cast<std::byte *>(&cfg) + entry->offset);
        return;
    }
    std::size_t inner = 0;
    for (const auto &[k, member] : asObject(value, path, point).object())
        applyMember(cfg, entry->members, inner, k, member,
                    FieldPath{&path, k}, point);
}

core::MachineConfig
parseConfigAt(const Json &v, const FieldPath &path, std::size_t point)
{
    const Json &obj = asObject(v, path, point);
    const WireLevel &table = wireTable();

    // kind/cores/variant first: make() derives the variant's timing
    // knobs (hop cycles, L2/BM round trips), so overrides below land
    // on the same baseline the benches use. Duplicate keys resolve to
    // the first occurrence (find()), matching common JSON libraries.
    core::MachineConfig base;
    for (const std::string_view key : {"kind", "cores", "variant"}) {
        const FieldPath at{&path, key};
        std::size_t next = 0;
        if (const Json *member = obj.find(key); member != nullptr)
            applyMember(base, table, next, key, *member, at, point);
        else if (key != "variant")
            fail(at, point, "missing required key");
    }
    // make() cannot build a zero-core machine at all.
    if (base.numCores == 0)
        fail(FieldPath{&path, "cores"}, point, "need at least one core");
    core::MachineConfig cfg =
        core::MachineConfig::make(base.kind, base.numCores, base.variant);

    std::size_t next = 0;
    for (const auto &[key, member] : obj.object()) {
        if (key != "kind" && key != "cores" && key != "variant")
            applyMember(cfg, table, next, key, member,
                        FieldPath{&path, key}, point);
    }

    // A config Machine would refuse (fatal, killing a service process)
    // is a typed request error instead.
    if (const auto error = cfg.validate())
        fail(FieldPath{&path, error->field}, point, error->message);
    return cfg;
}

WorkloadSpec
parseWorkloadAt(const Json &v, const FieldPath &path, std::size_t point)
{
    const Json &obj = asObject(v, path, point);
    WorkloadSpec spec;

    const Json *kind = obj.find("kind");
    const FieldPath kind_path{&path, "kind"};
    if (kind == nullptr)
        fail(kind_path, point, "missing required key");
    const std::string &k = asString(*kind, kind_path, point);
    if (k == "tightloop")
        spec.kind = WorkloadSpec::Kind::TightLoop;
    else if (k == "cas")
        spec.kind = WorkloadSpec::Kind::Cas;
    else
        fail(kind_path, point,
             "unknown workload '" + k + "' (expected tightloop or cas)");

    const bool tight = spec.kind == WorkloadSpec::Kind::TightLoop;
    for (const auto &[key, member] : obj.object()) {
        const FieldPath sub{&path, key};
        if (key == "kind") {
            continue;
        } else if (key == "maxCycles") {
            // Kind-independent: the budget bounds the whole point.
            spec.maxCycles = asU64(member, sub, point);
        } else if (tight && key == "iterations") {
            spec.tightLoop.iterations = asU32(member, sub, point);
        } else if (tight && key == "arrayElems") {
            spec.tightLoop.arrayElems = asU32(member, sub, point);
        } else if (tight && key == "runLimit") {
            spec.tightLoop.runLimit = asU64(member, sub, point);
        } else if (!tight && key == "kernel") {
            spec.casKernel = parseEnum(member, sub, point, kCasKernels,
                                       "CAS kernel");
        } else if (!tight && key == "criticalSectionInstr") {
            spec.cas.criticalSectionInstr = asU32(member, sub, point);
        } else if (!tight && key == "duration") {
            spec.cas.duration = asU64(member, sub, point);
        } else {
            fail(sub, point,
                 "unknown key '" + std::string(key) + "' for workload '" +
                     k + "'");
        }
    }
    return spec;
}

// ---- Canonical emission ------------------------------------------

/** Room for one value's text: a shortest round-trip double takes at
 *  most 24 bytes, a u64 20, a quoted enum spelling under 20. */
constexpr std::size_t kValueBytes = 32;

char *
put(char *p, std::string_view s)
{
    std::memcpy(p, s.data(), s.size());
    return p + s.size();
}

template <typename T>
char *
putValue(char *p, const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return put(p, v ? "true" : "false");
    } else if constexpr (std::is_same_v<T, double>) {
        const auto [end, ec] = std::to_chars(p, p + kValueBytes, v);
        return ec == std::errc() ? end : put(p, "0");
    } else if constexpr (std::is_enum_v<T>) {
        // The spellings are identifiers: quoting them needs no escapes.
        *p++ = '"';
        p = put(p, toString(v));
        *p++ = '"';
        return p;
    } else {
        return std::to_chars(p, p + kValueBytes, std::uint64_t{v}).ptr;
    }
}

/**
 * The constant text of a canonical object, derived once from its field
 * list: fragment i is everything before value i since value i-1 (the
 * separator, the key, any group opening or closing), and the last
 * fragment closes the object.
 */
struct Fragments
{
    std::vector<std::string> text{"{"};
    /** Longest possible object: every fragment and every value. */
    std::size_t maxBytes = 0;
};

/** Builds the Fragments of a field list. */
struct FragmentBuilder
{
    Fragments f;
    /** No separator before the next key (an object just opened). */
    bool first = true;

    template <typename T>
    void
    field(const char *name, const T &, const core::FieldSpec &spec)
    {
        if (!spec.wire)
            return;
        key(name);
        f.text.emplace_back();
    }

    template <typename Members>
    void
    group(const char *name, const core::FieldSpec &spec, Members &&members)
    {
        if (!spec.wire)
            return;
        key(name);
        f.text.back() += '{';
        first = true;
        members();
        f.text.back() += '}';
        first = false;
    }

    void
    key(const char *name)
    {
        std::string &t = f.text.back();
        if (!first)
            t += ',';
        t += '"';
        t += name;
        t += "\":";
        first = false;
    }

    Fragments
    finish()
    {
        f.text.back() += '}';
        f.maxBytes = (f.text.size() - 1) * kValueBytes;
        for (const std::string &t : f.text)
            f.maxBytes += t.size();
        return std::move(f);
    }
};

/** Writes the wire entries between their fragments. */
struct Serializer
{
    char *p;
    const std::vector<std::string> &text;
    std::size_t next = 0;

    template <typename T>
    void
    field(const char *, const T &member, const core::FieldSpec &spec)
    {
        if (!spec.wire)
            return;
        p = putValue(put(p, text[next++]), member);
    }

    template <typename Members>
    void
    group(const char *, const core::FieldSpec &spec, Members &&members)
    {
        if (spec.wire)
            members();
    }
};

/** Append @p obj's canonical object to @p out: @p walk visits its
 *  fields, in room reserved once for the longest possible text. */
template <typename Obj, typename Walk>
void
emit(std::string &out, const Fragments &f, const Obj &obj, Walk walk)
{
    const std::size_t at = out.size();
    out.resize(at + f.maxBytes);
    Serializer s{out.data() + at, f.text};
    walk(obj, s);
    s.p = put(s.p, f.text[s.next]);
    out.resize(static_cast<std::size_t>(s.p - out.data()));
}

/** Walks @p v over the simulated KernelResult counters. */
template <typename R, typename V>
void
forEachSimulated(R &r, V &v)
{
    workloads::forEachCounter(
        r, [&](const char *name, const auto &member,
               workloads::CounterKind kind) {
            if (kind == workloads::CounterKind::Simulated)
                v.field(name, member, core::FieldSpec{});
        });
}

const Fragments &
configFragments()
{
    static const Fragments fragments = [] {
        const core::MachineConfig names;
        FragmentBuilder b;
        core::forEachField(names, b);
        return b.finish();
    }();
    return fragments;
}

const Fragments &
resultFragments()
{
    static const Fragments fragments = [] {
        const workloads::KernelResult names;
        FragmentBuilder b;
        forEachSimulated(names, b);
        return b.finish();
    }();
    return fragments;
}

/**
 * What @p write appends, in a string of exactly that size: written into
 * a per-thread buffer first, since the room emit() reserves would
 * otherwise stay allocated with a returned text that outlives it.
 */
template <typename Write>
std::string
exactly(Write &&write)
{
    thread_local std::string buffer;
    buffer.clear();
    write(buffer);
    return buffer;
}

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
    return parseConfigAt(v, FieldPath{nullptr, path}, point_index);
}

WorkloadSpec
ConfigCodec::parseWorkload(const Json &v, std::size_t point_index,
                           const std::string &path)
{
    return parseWorkloadAt(v, FieldPath{nullptr, path}, point_index);
}

SweepRequest
ConfigCodec::parseRequest(const std::string &json_text)
{
    const FieldPath request_path{nullptr, "<request>"};
    Json doc;
    try {
        doc = Json::parse(json_text);
    } catch (const JsonError &e) {
        fail(request_path, ParseError::kNoPoint, e.what());
    }
    const Json &obj = asObject(doc, request_path, ParseError::kNoPoint);

    const Json *points = nullptr;
    for (const auto &[key, member] : obj.object()) {
        if (key == "points")
            points = &member;
        else
            fail(FieldPath{nullptr, key}, ParseError::kNoPoint,
                 "unknown key '" + std::string(key) + "'");
    }
    const FieldPath points_path{nullptr, "points"};
    if (points == nullptr)
        fail(points_path, ParseError::kNoPoint, "missing required key");
    if (!points->isArray())
        fail(points_path, ParseError::kNoPoint,
             std::string("expected an array, got ") +
                 points->typeName());

    SweepRequest request;
    request.points.reserve(points->array().size());
    for (std::size_t i = 0; i < points->array().size(); ++i) {
        const FieldPath base{nullptr, "points", i};
        const Json &pobj = asObject(points->array()[i], base, i);
        RequestPoint point;
        const Json *config = nullptr;
        const Json *workload = nullptr;
        for (const auto &[key, member] : pobj.object()) {
            if (key == "config")
                config = &member;
            else if (key == "workload")
                workload = &member;
            else
                fail(FieldPath{&base, key}, i,
                     "unknown key '" + std::string(key) + "'");
        }
        if (config == nullptr)
            fail(FieldPath{&base, "config"}, i, "missing required key");
        point.config = parseConfigAt(*config, FieldPath{&base, "config"}, i);
        if (workload != nullptr)
            point.workload =
                parseWorkloadAt(*workload, FieldPath{&base, "workload"}, i);
        request.points.push_back(std::move(point));
    }
    return request;
}

void
ConfigCodec::serialize(const core::MachineConfig &cfg, std::string &out)
{
    emit(out, configFragments(), cfg,
         [](const core::MachineConfig &c, Serializer &s) {
             core::forEachField(c, s);
         });
}

void
ConfigCodec::serialize(const WorkloadSpec &w, std::string &out)
{
    switch (w.kind) {
      case WorkloadSpec::Kind::TightLoop:
        out += "{\"kind\":\"tightloop\",\"iterations\":";
        appendJsonNumber(out, std::uint64_t{w.tightLoop.iterations});
        out += ",\"arrayElems\":";
        appendJsonNumber(out, std::uint64_t{w.tightLoop.arrayElems});
        out += ",\"runLimit\":";
        appendJsonNumber(out, w.tightLoop.runLimit);
        break;
      case WorkloadSpec::Kind::Cas:
        out += "{\"kind\":\"cas\",\"kernel\":";
        appendJsonQuote(out, toString(w.casKernel));
        out += ",\"criticalSectionInstr\":";
        appendJsonNumber(out, std::uint64_t{w.cas.criticalSectionInstr});
        out += ",\"duration\":";
        appendJsonNumber(out, w.cas.duration);
        break;
    }
    out += ",\"maxCycles\":";
    appendJsonNumber(out, w.maxCycles);
    out += '}';
}

void
ConfigCodec::serialize(const RequestPoint &point, std::string &out)
{
    out += "{\"config\":";
    serialize(point.config, out);
    out += ",\"workload\":";
    serialize(point.workload, out);
    out += '}';
}

void
ConfigCodec::serializeResult(const workloads::KernelResult &r,
                             std::string &out)
{
    emit(out, resultFragments(), r,
         [](const workloads::KernelResult &k, Serializer &s) {
             forEachSimulated(k, s);
         });
}

std::string
ConfigCodec::serialize(const core::MachineConfig &cfg)
{
    return exactly([&](std::string &out) { serialize(cfg, out); });
}

std::string
ConfigCodec::serialize(const WorkloadSpec &w)
{
    return exactly([&](std::string &out) { serialize(w, out); });
}

std::string
ConfigCodec::serialize(const RequestPoint &point)
{
    return exactly([&](std::string &out) { serialize(point, out); });
}

std::string
ConfigCodec::serializeRequest(const SweepRequest &request)
{
    return exactly([&](std::string &out) {
        out += "{\"points\":[";
        for (std::size_t i = 0; i < request.points.size(); ++i) {
            if (i != 0)
                out += ',';
            serialize(request.points[i], out);
        }
        out += "]}";
    });
}

std::string
ConfigCodec::serializeResult(const workloads::KernelResult &r)
{
    return exactly([&](std::string &out) { serializeResult(r, out); });
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
        fail(FieldPath{nullptr, "workload.kind"}, ParseError::kNoPoint,
             "unhandled workload kind");
    }
    if (spec.maxCycles != 0 && engine.deadlineHit())
        throw DeadlineExceeded(spec.maxCycles, engine.now());
    return result;
}

} // namespace wisync::service
