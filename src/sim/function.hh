/**
 * @file
 * Move-only type-erased callable, for callbacks that wait in model
 * state: MAC payloads and bridge deliveries, which run when their
 * frame lands, and the engine's box for an event callable too large
 * for its 16-byte slot payload (see Engine::kInlinePayload).
 *
 * std::function requires copyability, which rules out lambdas that own
 * coroutine frames or other move-only resources. A 48-byte small-buffer
 * optimization keeps the model's delivery callbacks (a `this` pointer
 * plus a frame or word address) off the heap.
 *
 * Inline storage is reserved for trivially-copyable payloads so that
 * moving a UniqueFunction is always a plain byte copy (no per-type
 * relocation call, no possibility of interior-pointer breakage).
 * Anything larger or non-trivially-copyable — e.g. a detached task
 * wrapper owning a coroutine frame, or a lambda owning a vector —
 * transparently falls back to a heap allocation.
 */

#ifndef WISYNC_SIM_FUNCTION_HH
#define WISYNC_SIM_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace wisync::sim {

/** Move-only void() callable with small-buffer optimization. */
class UniqueFunction
{
  public:
    /** Payloads up to this size (and trivially copyable) stay inline. */
    static constexpr std::size_t kInlineSize = 48;
    static constexpr std::size_t kInlineAlign = alignof(void *);

    UniqueFunction() = default;

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, UniqueFunction>>>
    UniqueFunction(F &&f)
    {
        if constexpr (fitsInline<D>) {
            ::new (static_cast<void *>(storage_)) D(std::forward<F>(f));
            ops_ = &InlineOps<D>::ops;
        } else {
            D *p = new D(std::forward<F>(f));
            std::memcpy(storage_, &p, sizeof(p));
            ops_ = &HeapOps<D>::ops;
        }
    }

    // Relocation copies the whole inline buffer: payloads smaller than
    // the buffer leave trailing bytes uninitialized, which is benign
    // (they are never read through the payload type) but trips GCC's
    // -Wmaybe-uninitialized.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
    UniqueFunction(UniqueFunction &&other) noexcept : ops_(other.ops_)
    {
        if (ops_ != nullptr)
            std::memcpy(storage_, other.storage_, kInlineSize);
        other.ops_ = nullptr;
    }

    UniqueFunction &
    operator=(UniqueFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            if (other.ops_ != nullptr)
                std::memcpy(storage_, other.storage_, kInlineSize);
            ops_ = std::exchange(other.ops_, nullptr);
        }
        return *this;
    }
#pragma GCC diagnostic pop

    UniqueFunction(const UniqueFunction &) = delete;
    UniqueFunction &operator=(const UniqueFunction &) = delete;

    ~UniqueFunction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void operator()() { ops_->call(storage_); }

    /** True when the payload lives in the inline buffer (test hook). */
    bool usesInlineStorage() const { return ops_ && ops_->inlineStored; }

  private:
    struct Ops
    {
        void (*call)(void *);
        void (*destroy)(void *); // nullptr: trivially destructible inline
        bool inlineStored;
    };

    // Inline storage demands trivial copyability: moves are memcpy, and
    // trivially-copyable types are also trivially destructible, so the
    // inline path needs no destroy hook at all.
    template <typename D>
    static constexpr bool fitsInline =
        sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
        std::is_trivially_copyable_v<D>;

    template <typename D>
    struct InlineOps
    {
        static void
        call(void *p)
        {
            (*std::launder(reinterpret_cast<D *>(p)))();
        }
        static constexpr Ops ops{&call, nullptr, true};
    };

    template <typename D>
    struct HeapOps
    {
        static D *
        ptr(void *p)
        {
            D *d;
            std::memcpy(&d, p, sizeof(d));
            return d;
        }
        static void call(void *p) { (*ptr(p))(); }
        static void destroy(void *p) { delete ptr(p); }
        static constexpr Ops ops{&call, &destroy, false};
    };

    void
    reset()
    {
        if (ops_ && ops_->destroy)
            ops_->destroy(storage_);
        ops_ = nullptr;
    }

    alignas(kInlineAlign) unsigned char storage_[kInlineSize];
    const Ops *ops_ = nullptr;
};

} // namespace wisync::sim

#endif // WISYNC_SIM_FUNCTION_HH
