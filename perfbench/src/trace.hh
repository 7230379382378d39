/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are recorded from the benchmark's own code around its calls
 * into each layer's public functions (nothing inside the program is
 * instrumented): name, layer, start, end, parent span and the point or
 * request id they serve. They stay in memory and are written once, as
 * Chrome trace-event JSON (loadable in Perfetto), when the run ends.
 *
 * A layer's self time is the sum over its spans of the span's
 * duration minus the part of that interval its child spans cover.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two instants. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

class Tracer
{
  public:
    /** Span id 0 means "no parent". */
    static constexpr std::uint64_t kNoParent = 0;

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Reserve a span id (so children can name a still-open parent). */
    std::uint64_t newId();

    /** Record a finished span under a reserved @p id (thread-safe). */
    void record(std::uint64_t id, const char *layer, const char *name,
                std::uint64_t parent, std::uint64_t item,
                Clock::time_point start, Clock::time_point end,
                std::thread::id thread = std::this_thread::get_id());

    std::size_t size() const;

    /** Self time per layer, ms (see the file comment). */
    std::map<std::string, double> selfMsByLayer() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChrome(const std::string &path,
                     const std::string &metadata_json) const;

  private:
    struct Span
    {
        std::uint64_t id;
        const char *layer;
        const char *name;
        std::uint64_t parent;
        std::uint64_t item;
        Clock::time_point start;
        Clock::time_point end;
        std::uint32_t tid;
    };

    const bool enabled_;
    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_; // guards everything below
    std::uint64_t nextId_ = 1;
    std::vector<Span> spans_;
    std::map<std::thread::id, std::uint32_t> tids_;
};

/** Records one span over its scope (no-op when tracing is off). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *layer, const char *name,
               std::uint64_t parent = Tracer::kNoParent,
               std::uint64_t item = 0)
        : tracer_(tracer), layer_(layer), name_(name), parent_(parent),
          item_(item), id_(tracer.enabled() ? tracer.newId() : 0),
          start_(Clock::now())
    {}

    ~ScopedSpan()
    {
        if (tracer_.enabled())
            tracer_.record(id_, layer_, name_, parent_, item_, start_,
                           Clock::now());
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }
    /** Elapsed ms so far (the caller's own sample). */
    double elapsedMs() const { return msBetween(start_, Clock::now()); }

  private:
    Tracer &tracer_;
    const char *layer_;
    const char *name_;
    std::uint64_t parent_;
    std::uint64_t item_;
    std::uint64_t id_;
    Clock::time_point start_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
