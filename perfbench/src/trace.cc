#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "service/json.hh"

namespace perfbench {

std::uint64_t
Tracer::newId()
{
    std::lock_guard<std::mutex> lock(mu_);
    return nextId_++;
}

void
Tracer::record(std::uint64_t id, const char *layer, const char *name,
               std::uint64_t parent, std::uint64_t item,
               Clock::time_point start, Clock::time_point end,
               std::thread::id thread)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, fresh] = tids_.try_emplace(
        thread, static_cast<std::uint32_t>(tids_.size() + 1));
    (void)fresh;
    spans_.push_back({id, layer, name, parent, item, start, end,
                      it->second});
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans_) {
        if (s.parent != kNoParent)
            children[s.parent].push_back(&s);
    }
    std::map<std::string, double> self;
    for (const Span &s : spans_) {
        // Union of the children's intervals, clipped to the span.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        if (const auto it = children.find(s.id); it != children.end()) {
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->start, s.start),
                                std::min(c->end, s.end));
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = s.start;
        for (const auto &[a, b] : iv) {
            const Clock::time_point from = std::max(a, reach);
            if (b > from) {
                covered += msBetween(from, b);
                reach = b;
            }
        }
        self[s.layer] += msBetween(s.start, s.end) - covered;
    }
    return self;
}

bool
Tracer::writeChrome(const std::string &path,
                    const std::string &metadata_json) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"metadata\":%s,"
                    "\"traceEvents\":[",
                 metadata_json.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double ts =
            std::chrono::duration<double, std::micro>(s.start - origin_)
                .count();
        const double dur =
            std::chrono::duration<double, std::micro>(s.end - s.start)
                .count();
        std::fprintf(f,
                     "%s\n{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%s,\"dur\":%s,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu,\"item\":%llu}}",
                     i ? "," : "", s.layer, s.name, s.layer, s.tid,
                     wisync::service::jsonNumber(ts).c_str(),
                     wisync::service::jsonNumber(dur).c_str(),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.item));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
