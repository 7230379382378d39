/**
 * @file
 * Minimal JSON for the sweep service: a recursive-descent parser into
 * an ordered value tree, plus canonical emission helpers.
 *
 * Deliberately not a general-purpose library — it supports exactly
 * what the service front-end needs and nothing the container lacks:
 *
 *  - parse() accepts standard JSON (objects, arrays, strings with
 *    escapes, numbers, true/false/null) and reports errors with a
 *    byte offset, which ConfigCodec turns into field-path errors;
 *  - object members preserve source order and are probed by find(),
 *    so the codec can both walk every key (unknown-key hard errors)
 *    and look up the ones it knows;
 *  - numbers keep their raw token next to the double so 64-bit seeds
 *    round-trip exactly (a double-only representation silently
 *    corrupts integers above 2^53);
 *  - the emit helpers produce the service's canonical form: fixed
 *    field order is the caller's job, escaping and shortest
 *    round-trip number formatting are handled here.
 *  - containers nest at most Json::kMaxDepth levels deep, so neither
 *    the parser nor a value's destructor, which both recurse once per
 *    level, can run out of stack on hostile input.
 *
 * Cost model: a parse costs bytes, not nodes. The root value owns one
 * arena holding every member key and every container's child block,
 * so a document makes a handful of heap allocations whatever its
 * size; string runs are scanned and appended in bulk. Values are
 * move-only: children and keys live in the root's arena.
 */

#ifndef WISYNC_SERVICE_JSON_HH
#define WISYNC_SERVICE_JSON_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace wisync::service {

/** Malformed JSON text: message plus byte offset into the input. */
class JsonError : public std::runtime_error
{
  public:
    JsonError(const std::string &message, std::size_t offset)
        : std::runtime_error(message + " at byte " +
                             std::to_string(offset)),
          offset_(offset)
    {}

    std::size_t offset() const { return offset_; }

  private:
    std::size_t offset_;
};

/** One parsed JSON value (see file comment for the design limits). */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** An object member; the key is valid while the root value is. */
    struct Member;

    /** Deepest container nesting parse() accepts; a canonical
     *  service request nests five levels. */
    static constexpr std::size_t kMaxDepth = 256;

    /** Parse @p text (the whole text must be one value). */
    static Json parse(std::string_view text);

    Json();
    Json(Json &&other) noexcept;
    Json &operator=(Json &&other) noexcept;
    Json(const Json &) = delete;
    Json &operator=(const Json &) = delete;
    ~Json();

    Type type() const { return type_; }
    const char *typeName() const;

    bool isObject() const { return type_ == Type::Object; }
    bool isArray() const { return type_ == Type::Array; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isBool() const { return type_ == Type::Bool; }

    bool boolean() const { return bool_; }
    double number() const { return isNumber() ? number_ : 0.0; }
    /** The number's source token (exact u64 parsing; numbers only). */
    const std::string &rawNumber() const;
    const std::string &str() const;

    std::span<const Json> array() const;
    /** Members in source order. */
    std::span<const Member> object() const;

    /** First member named @p key, or nullptr. */
    const Json *find(std::string_view key) const;

  private:
    friend class JsonParser;
    class Arena;

    bool hasText() const { return isNumber() || isString(); }
    /** Destroy the payload (text or children); the type is left. */
    void destroyPayload() noexcept;
    /** Take @p other's payload and arena, leaving it null. */
    void steal(Json &other) noexcept;

    Type type_ = Type::Null;
    bool bool_ = false;
    /** Numbers only. */
    double number_ = 0.0;
    /** Array and object: the child block in the root's arena. */
    struct Children
    {
        void *data;
        std::size_t size;
    };
    union {
        /** String: the decoded value. Number: the source token. */
        std::string text_;
        Children kids_;
    };
    /** Root only: storage for every key and child block below it. */
    std::unique_ptr<Arena> arena_;
};

struct Json::Member
{
    std::string_view first;
    Json second;
};

inline std::span<const Json>
Json::array() const
{
    if (!isArray())
        return {};
    return {static_cast<const Json *>(kids_.data), kids_.size};
}

inline std::span<const Json::Member>
Json::object() const
{
    if (!isObject())
        return {};
    return {static_cast<const Member *>(kids_.data), kids_.size};
}

// ---- Canonical emission helpers ----------------------------------

/** Append @p s to @p out, quoted and escaped as a JSON string literal. */
void appendJsonQuote(std::string &out, std::string_view s);

/** Append the shortest round-trip decimal form of @p v (to_chars). */
void appendJsonNumber(std::string &out, double v);

/** Append the exact decimal form of @p v. */
void appendJsonNumber(std::string &out, std::uint64_t v);

/** @p s quoted and escaped as a JSON string literal. */
std::string jsonQuote(std::string_view s);

/** Shortest round-trip decimal form of @p v (to_chars). */
std::string jsonNumber(double v);

/** Exact decimal form of @p v. */
std::string jsonNumber(std::uint64_t v);

} // namespace wisync::service

#endif // WISYNC_SERVICE_JSON_HH
