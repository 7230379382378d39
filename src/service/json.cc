#include "service/json.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <utility>

#include "sim/inline_vec.hh"

namespace wisync::service {

/**
 * Bump storage for one document: member keys and child blocks, in
 * blocks that never move, freed together with the root value.
 */
class Json::Arena
{
  public:
    explicit Arena(std::size_t first_block) : nextBlock_(first_block) {}

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    ~Arena()
    {
        while (last_ != nullptr) {
            Block *prev = last_->prev;
            ::operator delete(last_);
            last_ = prev;
        }
    }

    /** Uninitialized room for @p n objects of @p T. */
    template <typename T>
    T *
    allocate(std::size_t n)
    {
        static_assert(alignof(T) <= kAlign);
        return static_cast<T *>(take(n * sizeof(T)));
    }

    /** A copy of @p s that lives as long as the arena. */
    std::string_view
    copy(std::string_view s)
    {
        char *p = allocate<char>(s.size());
        if (!s.empty())
            std::memcpy(p, s.data(), s.size());
        return {p, s.size()};
    }

  private:
    static constexpr std::size_t kAlign = alignof(std::max_align_t);

    struct alignas(kAlign) Block
    {
        Block *prev;
    };

    void *
    take(std::size_t bytes)
    {
        // No document comes near; the guard keeps the rounding exact.
        if (bytes > std::numeric_limits<std::size_t>::max() / 4)
            throw std::bad_alloc();
        bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
        if (bytes > left_) {
            const std::size_t size = std::max(nextBlock_, bytes);
            auto *block =
                static_cast<Block *>(::operator new(sizeof(Block) + size));
            block->prev = last_;
            last_ = block;
            next_ = reinterpret_cast<std::byte *>(block + 1);
            left_ = size;
            nextBlock_ = 2 * size;
        }
        void *p = next_;
        next_ += bytes;
        left_ -= bytes;
        return p;
    }

    Block *last_ = nullptr;
    std::byte *next_ = nullptr;
    std::size_t left_ = 0;
    std::size_t nextBlock_;
};

Json::Json() {}

Json::Json(Json &&other) noexcept
{
    steal(other);
}

Json &
Json::operator=(Json &&other) noexcept
{
    if (this != &other) {
        destroyPayload();
        arena_.reset();
        steal(other);
    }
    return *this;
}

Json::~Json()
{
    destroyPayload();
}

void
Json::destroyPayload() noexcept
{
    switch (type_) {
      case Type::Number:
      case Type::String:
        text_.~basic_string();
        break;
      case Type::Array:
        std::destroy_n(static_cast<Json *>(kids_.data), kids_.size);
        break;
      case Type::Object:
        std::destroy_n(static_cast<Member *>(kids_.data), kids_.size);
        break;
      default:
        break;
    }
}

void
Json::steal(Json &other) noexcept
{
    type_ = other.type_;
    bool_ = other.bool_;
    number_ = other.number_;
    if (other.hasText()) {
        new (&text_) std::string(std::move(other.text_));
        other.text_.~basic_string();
    } else if (other.isArray() || other.isObject()) {
        kids_ = other.kids_;
    }
    arena_ = std::move(other.arena_);
    other.type_ = Type::Null;
}

const char *
Json::typeName() const
{
    switch (type_) {
      case Type::Null:
        return "null";
      case Type::Bool:
        return "bool";
      case Type::Number:
        return "number";
      case Type::String:
        return "string";
      case Type::Array:
        return "array";
      case Type::Object:
        return "object";
    }
    return "?";
}

namespace {

const std::string kNoText;

} // namespace

const std::string &
Json::rawNumber() const
{
    return isNumber() ? text_ : kNoText;
}

const std::string &
Json::str() const
{
    return isString() ? text_ : kNoText;
}

const Json *
Json::find(std::string_view key) const
{
    for (const Member &m : object()) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

/**
 * Recursive-descent parser over the whole input.
 *
 * Values are parsed into trivially copyable slots on one stack; a
 * container's slots become its Json children, built in place in the
 * document arena, when the container closes. So every node is
 * constructed once and never moved, and a string or number token is
 * copied once, from the input into its node.
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text)
        // A canonical request point needs about five bytes of nodes
        // per byte of text, plus the copy: one block holds it.
        : arena_(std::make_unique<Json::Arena>(
              std::max<std::size_t>(1024, 7 * text.size())))
    {
        // Keys view the document's own copy of the text.
        text_ = arena_->copy(text);
    }

    JsonParser(const JsonParser &) = delete;
    JsonParser &operator=(const JsonParser &) = delete;

    ~JsonParser()
    {
        // After a parse error the children built so far are owned by
        // the container slots still stacked.
        for (const Slot &s : stack_)
            destroyChildren(s);
    }

    Json
    parseDocument()
    {
        stack_.emplace_back();
        parseInto(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON value");
        Json root;
        build(stack_[0], root);
        stack_.pop_back();
        root.arena_ = std::move(arena_);
        return root;
    }

  private:
    /** A parsed value before it becomes a node. */
    struct Slot
    {
        /** Object member key (in the arena). */
        std::string_view key;
        Json::Type type = Json::Type::Null;
        bool boolean = false;
        double number = 0.0;
        /** String: the decoded value. Number: the token. */
        std::string_view text;
        /** Array and object: the built children. */
        void *kids = nullptr;
        std::size_t size = 0;
    };

    [[noreturn]] void
    fail(const std::string &message) const
    {
        throw JsonError(message, pos_);
    }

    void
    skipWs()
    {
        pos_ = scan(pos_, [](char c) {
            return c == ' ' || c == '\t' || c == '\n' || c == '\r';
        });
    }

    /** The first position from @p from whose byte fails @p pred. */
    template <typename Pred>
    std::size_t
    scan(std::size_t from, Pred pred) const
    {
        const char *p = text_.data() + from;
        const char *end = text_.data() + text_.size();
        while (p != end && pred(*p))
            ++p;
        return static_cast<std::size_t>(p - text_.data());
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeWord(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    /**
     * The first position from @p from holding a quote, a backslash or a
     * control byte (or the end): eight bytes per step where the host
     * is little-endian, since string runs are most of the text.
     */
    std::size_t
    scanPlain(std::size_t from) const
    {
        const char *p = text_.data() + from;
        const char *end = text_.data() + text_.size();
        if constexpr (std::endian::native == std::endian::little) {
            constexpr std::uint64_t kOnes = ~std::uint64_t{0} / 255;
            constexpr std::uint64_t kHigh = kOnes * 0x80;
            // Per byte, the high bit of (x - b) & ~x marks a byte of x
            // below b: exact for the lowest marked byte, which is all
            // a scan needs.
            auto below = [&](std::uint64_t x, std::uint64_t b) {
                return (x - kOnes * b) & ~x & kHigh;
            };
            for (; end - p >= 8; p += 8) {
                std::uint64_t w;
                std::memcpy(&w, p, 8);
                const std::uint64_t special =
                    below(w, 0x20) | below(w ^ (kOnes * '"'), 1) |
                    below(w ^ (kOnes * '\\'), 1);
                if (special != 0)
                    return static_cast<std::size_t>(p - text_.data()) +
                           std::countr_zero(special) / 8;
            }
        }
        return scan(static_cast<std::size_t>(p - text_.data()),
                    [](char c) { return plain(c); });
    }

    /** A byte a string copies verbatim (no quote, escape or control). */
    static bool
    plain(char c)
    {
        static constexpr auto kPlain = [] {
            std::array<bool, 256> t{};
            for (int b = 0x20; b < 256; ++b)
                t[b] = b != '"' && b != '\\';
            return t;
        }();
        return kPlain[static_cast<unsigned char>(c)];
    }

    /** Parse the next value into stack_[@p slot]. */
    void
    parseInto(std::size_t slot)
    {
        skipWs();
        switch (peek()) {
          case '{':
            parseObject(slot);
            return;
          case '[':
            parseArray(slot);
            return;
          case '"':
            ++pos_;
            stack_[slot].text = readString();
            stack_[slot].type = Json::Type::String;
            return;
          case 't':
          case 'f':
          case 'n':
            parseWord(stack_[slot]);
            return;
          default:
            parseNumber(stack_[slot]);
            return;
        }
    }

    /** Open a container at pos_: it nests one level deeper. */
    void
    open()
    {
        if (depth_ == Json::kMaxDepth)
            failTooDeep();
        ++depth_;
        ++pos_;
    }

    [[noreturn, gnu::noinline]] void
    failTooDeep() const
    {
        fail("containers nest deeper than " +
             std::to_string(Json::kMaxDepth) + " levels");
    }

    /** Move the slots pushed since @p base into a container node. */
    void
    close(std::size_t slot, Json::Type type, std::size_t base)
    {
        --depth_;
        const std::size_t n = stack_.size() - base;
        const Slot *from = stack_.begin() + base;
        std::size_t built = 0;
        void *kids = nullptr;
        try {
            if (type == Json::Type::Object) {
                auto *members = arena_->allocate<Json::Member>(n);
                kids = members;
                for (; built < n; ++built) {
                    auto *m = new (members + built)
                        Json::Member{from[built].key, Json()};
                    build(from[built], m->second);
                }
            } else {
                auto *items = arena_->allocate<Json>(n);
                kids = items;
                for (; built < n; ++built)
                    build(from[built], *new (items + built) Json());
            }
        } catch (...) {
            // Only allocation can throw here: unwind what was built.
            destroyChildren(Slot{{}, type, false, 0.0, {}, kids, built});
            throw;
        }
        while (stack_.size() > base)
            stack_.pop_back();
        Slot &s = stack_[slot];
        s.type = type;
        s.kids = kids;
        s.size = n;
    }

    /** Fill the null node @p v from @p s (the node takes its children). */
    static void
    build(const Slot &s, Json &v)
    {
        switch (s.type) {
          case Json::Type::Number:
          case Json::Type::String:
            new (&v.text_) std::string(s.text);
            v.number_ = s.number;
            break;
          case Json::Type::Array:
          case Json::Type::Object:
            v.kids_ = {s.kids, s.size};
            break;
          default:
            v.bool_ = s.boolean;
            break;
        }
        v.type_ = s.type;
    }

    static void
    destroyChildren(const Slot &s)
    {
        if (s.type == Json::Type::Array)
            std::destroy_n(static_cast<Json *>(s.kids), s.size);
        else if (s.type == Json::Type::Object)
            std::destroy_n(static_cast<Json::Member *>(s.kids), s.size);
    }

    void
    parseObject(std::size_t slot)
    {
        open(); // '{'
        const std::size_t base = stack_.size();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            close(slot, Json::Type::Object, base);
            return;
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                fail("expected object key string");
            ++pos_;
            const std::string_view key = readString();
            skipWs();
            expect(':');
            stack_.emplace_back().key = key;
            parseInto(stack_.size() - 1);
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            close(slot, Json::Type::Object, base);
            return;
        }
    }

    void
    parseArray(std::size_t slot)
    {
        open(); // '['
        const std::size_t base = stack_.size();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            close(slot, Json::Type::Array, base);
            return;
        }
        while (true) {
            stack_.emplace_back();
            parseInto(stack_.size() - 1);
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            close(slot, Json::Type::Array, base);
            return;
        }
    }

    /**
     * The rest of a string (the opening quote is consumed), through the
     * closing quote: a view of the text when nothing is escaped, else
     * the decoded bytes, kept in the arena too.
     */
    std::string_view
    readString()
    {
        const std::size_t start = pos_;
        pos_ = scanPlain(pos_);
        if (pos_ < text_.size() && text_[pos_] == '"')
            return text_.substr(start, pos_++ - start);
        scratch_.assign(text_.data() + start, pos_ - start);
        decodeRest(scratch_);
        return arena_->copy(scratch_);
    }

    /** Decode from pos_ into @p out through the closing quote. */
    void
    decodeRest(std::string &out)
    {
        while (true) {
            const std::size_t run = pos_;
            pos_ = scanPlain(pos_);
            out.append(text_.data() + run, pos_ - run);
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return;
            if (c != '\\')
                fail("unescaped control character in string");
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= h - '0';
                    else if (h >= 'a' && h <= 'f')
                        cp |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        cp |= h - 'A' + 10;
                    else
                        fail("invalid \\u escape digit");
                }
                // UTF-8 encode the BMP code point (surrogate pairs are
                // out of scope for config text; reject them loudly).
                if (cp >= 0xD800 && cp <= 0xDFFF)
                    fail("surrogate \\u escapes are not supported");
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default:
                fail("invalid escape character");
            }
        }
    }

    void
    parseWord(Slot &s)
    {
        if (consumeWord("true")) {
            s.type = Json::Type::Bool;
            s.boolean = true;
        } else if (consumeWord("false")) {
            s.type = Json::Type::Bool;
        } else if (!consumeWord("null")) {
            fail("invalid literal");
        }
    }

    void
    parseNumber(Slot &s)
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        pos_ = scan(pos_, [](char c) {
            return (c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                   c == 'E' || c == '+' || c == '-';
        });
        if (pos_ == start)
            fail("invalid JSON value");
        const std::string_view raw = text_.substr(start, pos_ - start);
        if (!integerValue(raw, s.number)) {
            const auto [end, ec] = std::from_chars(
                raw.data(), raw.data() + raw.size(), s.number);
            if (ec != std::errc() || end != raw.data() + raw.size()) {
                pos_ = start;
                fail("malformed number");
            }
        }
        s.text = raw;
        s.type = Json::Type::Number;
    }

    /**
     * @p raw's value when it is an integer of at most 18 digits (with
     * an optional minus), the common token: its conversion to double
     * rounds exactly as from_chars does, without the general parse.
     */
    static bool
    integerValue(std::string_view raw, double &out)
    {
        const bool minus = raw.front() == '-';
        const std::size_t digits = raw.size() - minus;
        if (digits == 0 || digits > 18)
            return false;
        std::uint64_t v = 0;
        for (const char c : raw.substr(minus)) {
            if (c < '0' || c > '9')
                return false;
            v = 10 * v + static_cast<unsigned>(c - '0');
        }
        out = minus ? -static_cast<double>(v) : static_cast<double>(v);
        return true;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    /** Containers open at pos_. */
    std::size_t depth_ = 0;
    std::unique_ptr<Json::Arena> arena_;
    /** Deep enough for a canonical request point without the heap. */
    sim::InlineVec<Slot, 48> stack_;
    /** Decoding room for escaped strings. */
    std::string scratch_;
};

Json
Json::parse(std::string_view text)
{
    return JsonParser(text).parseDocument();
}

void
appendJsonQuote(std::string &out, std::string_view s)
{
    out += '"';
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
            static constexpr char kHex[] = "0123456789abcdef";
            const char esc[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xF],
                                kHex[c & 0xF]};
            out.append(esc, sizeof(esc));
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
    out += '"';
}

void
appendJsonNumber(std::string &out, double v)
{
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc())
        out += '0';
    else
        out.append(buf, end);
}

void
appendJsonNumber(std::string &out, std::uint64_t v)
{
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, end);
}

std::string
jsonQuote(std::string_view s)
{
    std::string out;
    appendJsonQuote(out, s);
    return out;
}

std::string
jsonNumber(double v)
{
    std::string out;
    appendJsonNumber(out, v);
    return out;
}

std::string
jsonNumber(std::uint64_t v)
{
    std::string out;
    appendJsonNumber(out, v);
    return out;
}

} // namespace wisync::service
