/**
 * @file
 * Coroutine task type for simulated threads and hardware transactions.
 *
 * Every multi-cycle activity in the model — a workload thread, a cache
 * miss transaction, a wireless broadcast — is a Task<T> coroutine that
 * co_awaits timing primitives (delays, mutexes, channels). Tasks are
 * lazy: they start when first awaited (or when detached onto the
 * engine), and completion resumes the awaiting parent via symmetric
 * transfer, so arbitrarily deep call chains use O(1) host stack.
 *
 * Resumption takes exactly one of two paths, and both are
 * allocation-free:
 *   - within a cycle, parent/child handoff is symmetric transfer (the
 *     awaiters below return the next handle directly and never touch
 *     the engine queue);
 *   - across cycles, the timing primitives in coro/primitives.hh park
 *     the raw handle in the event kernel via Engine::resumeHandle,
 *     which stores it in the scheduler tiers without a callable
 *     wrapper.
 *
 * A frame is paid only where a transaction really suspends in code
 * with local state: a workload thread, a detached writeback or recall,
 * a spin loop, a BM store or RMW (one frame for its whole broadcast),
 * and the sync layer's transactions. Mesh unicasts and tree
 * multicasts, L1 hits, L1 misses and upgrades with their DRAM fills,
 * coherence legs and their joins (state machines over records the
 * MemSystem pools), lock waits, spin waits, BM loads, compute and the
 * MAC and channel steps of a broadcast own no frame: they are
 * awaitables or callback events. Owners start a child either by
 * awaiting it or, from an event, via continueInto().
 */

#ifndef WISYNC_CORO_TASK_HH
#define WISYNC_CORO_TASK_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "coro/frame_pool.hh"

namespace wisync::coro {

template <typename T>
class Task;

namespace detail {

/** State shared by all task promises: continuation + error slot. */
struct TaskPromiseBase
{
    // Frames are allocated from the thread-local size-classed pool:
    // steady-state spawn/await/complete cycles never touch malloc
    // (oversized frames transparently fall back inside the pool).
    static void *
    operator new(std::size_t bytes)
    {
        return framePoolAllocate(bytes);
    }

    static void
    operator delete(void *p) noexcept
    {
        framePoolDeallocate(p);
    }

    std::coroutine_handle<> continuation = std::noop_coroutine();
    std::exception_ptr error;

    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        template <typename P>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<P> h) noexcept
        {
            // Symmetric transfer to whoever awaited us (or noop).
            return h.promise().continuation;
        }

        void await_resume() const noexcept {}
    };

    std::suspend_always initial_suspend() const noexcept { return {}; }
    FinalAwaiter final_suspend() const noexcept { return {}; }
    void unhandled_exception() { error = std::current_exception(); }
};

template <typename T>
struct TaskPromise : TaskPromiseBase
{
    std::optional<T> value;

    Task<T> get_return_object();
    void return_value(T v) { value.emplace(std::move(v)); }

    T
    result()
    {
        if (error)
            std::rethrow_exception(error);
        return std::move(*value);
    }
};

template <>
struct TaskPromise<void> : TaskPromiseBase
{
    Task<void> get_return_object();
    void return_void() const {}

    void
    result() const
    {
        if (error)
            std::rethrow_exception(error);
    }
};

} // namespace detail

/**
 * Lazily-started coroutine returning T.
 *
 * Ownership: the Task object owns the coroutine frame. Awaiting a Task
 * keeps it alive in the awaiting frame until the child completes (the
 * usual `co_await child()` pattern is safe because the temporary lives
 * across the suspension).
 */
template <typename T = void>
class [[nodiscard]] Task
{
  public:
    using promise_type = detail::TaskPromise<T>;
    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    /** Detach the raw handle (caller takes over lifetime). */
    Handle release() noexcept { return std::exchange(handle_, nullptr); }

    /** True while this object owns a frame. */
    explicit operator bool() const noexcept { return handle_ != nullptr; }

    /**
     * Make @p cont the coroutine the task's completion transfers to,
     * and return the (not yet started) frame for the owner to start
     * itself: inline or from an engine event. The task keeps owning
     * the frame.
     */
    std::coroutine_handle<>
    continueInto(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_;
    }

    auto
    operator co_await() noexcept
    {
        struct Awaiter
        {
            Handle h;

            bool await_ready() const noexcept { return !h || h.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> cont) noexcept
            {
                h.promise().continuation = cont;
                return h;
            }

            T await_resume() { return h.promise().result(); }
        };
        return Awaiter{handle_};
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    Handle handle_ = nullptr;
};

namespace detail {

template <typename T>
Task<T>
TaskPromise<T>::get_return_object()
{
    return Task<T>(
        std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void>
TaskPromise<void>::get_return_object()
{
    return Task<void>(
        std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

} // namespace detail

} // namespace wisync::coro

#endif // WISYNC_CORO_TASK_HH
