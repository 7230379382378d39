/**
 * @file
 * The transaction-record kit: a pool of records and a step that runs
 * one member of a record.
 *
 * Below the sync library a transaction in flight (a mesh tree branch,
 * a coherence miss or leg, a bridge frame) is a record, not a
 * coroutine frame. Each step of the transaction is a member function
 * of the record that runs in an engine event or as the (fn, ctx)
 * completion of something the step before it started (a message, a
 * mutex wait, a join). Link waiters, events and completions hold a
 * pointer into the record, so records never move.
 *
 *   - RecordPool<T> stores the records of one kind in a std::deque (so
 *     addresses stay stable as it grows) and recycles them through a
 *     free list of its own; no record carries a link field. alloc()
 *     reuses the record freed last, and constructs one from its
 *     arguments only when the pool grows (back-pointers and other
 *     fields fixed for a record's life go there); the caller fills in
 *     the rest. reset() makes every record free again, live or not,
 *     after an optional scrub of each, once the events that pointed
 *     into them are gone (Engine::reset). Only growth allocates: the
 *     free list has room for every record.
 *   - Step<&R::F> is the 8-byte callable that runs member F of a
 *     record: operator() as an inline engine event, and call(ctx) as
 *     a (fn, ctx) completion whose context is the record.
 */

#ifndef WISYNC_SIM_RECORD_HH
#define WISYNC_SIM_RECORD_HH

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

namespace wisync::sim {

/** Pool of records with stable addresses (see file comment). */
template <typename T>
class RecordPool
{
  public:
    RecordPool() = default;
    RecordPool(const RecordPool &) = delete;
    RecordPool &operator=(const RecordPool &) = delete;
    RecordPool(RecordPool &&) = default;

    /**
     * A free record: the one freed last, or, when none is free, a new
     * one constructed from @p args. A reused record keeps whatever
     * its last user left in it.
     */
    template <typename... Args>
    T &
    alloc(Args &&...args)
    {
        if (freeCount_ == 0)
            return grow(std::forward<Args>(args)...);
        return *free_[--freeCount_];
    }

    /** Return @p r to the free list. */
    void free(T &r) { free_[freeCount_++] = &r; }

    /**
     * Call @p scrub on every record ever made, free or live, in the
     * order they were made, then free them all: the next alloc() takes
     * the newest record.
     */
    template <typename Scrub>
    void
    reset(Scrub scrub)
    {
        freeCount_ = 0;
        if (!records_)
            return;
        for (T &r : *records_) {
            scrub(r);
            free_[freeCount_++] = &r;
        }
    }

    /** reset() with nothing to scrub. */
    void
    reset()
    {
        reset([](T &) {});
    }

    /** Records on the free list right now. */
    std::size_t freeCount() const { return freeCount_; }

  private:
    // Out of line: growth is rare, and the hot callers of alloc() stay
    // small without it.
    template <typename... Args>
    [[gnu::noinline]] T &
    grow(Args &&...args)
    {
        free_.push_back(nullptr);
        if (!records_)
            records_.emplace();
        return records_->emplace_back(std::forward<Args>(args)...);
    }

    /** Made on the first growth: a std::deque allocates as it is
     *  built, and a machine builds many pools (one per directory
     *  bank) before it runs. */
    std::optional<std::deque<T>> records_;
    /** The free list: its first freeCount_ entries. It has one entry
     *  per record, so free() never grows it. */
    std::vector<T *> free_;
    std::size_t freeCount_ = 0;
};

/** Runs member F of a record (see file comment). */
template <auto F>
struct Step;

template <typename R, void (R::*F)()>
struct Step<F>
{
    R *r;

    /** As an engine event. */
    void operator()() const { (r->*F)(); }

    /** As a (fn, ctx) completion, @p ctx being the record. */
    static void call(void *ctx) { (static_cast<R *>(ctx)->*F)(); }
};

} // namespace wisync::sim

#endif // WISYNC_SIM_RECORD_HH
