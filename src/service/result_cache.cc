#include "service/result_cache.hh"

namespace wisync::service {

const workloads::KernelResult *
ResultCache::lookup(const RequestPoint &point)
{
    const std::uint64_t key = this->key(point);
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    if (!(it->second->point == point)) {
        // Same 64-bit fingerprint, different point: exactness beats
        // hash trust — count it and answer "not cached".
        ++stats_.collisions;
        ++stats_.misses;
        return nullptr;
    }
    ++stats_.hits;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &entries_.front().result;
}

void
ResultCache::insert(const RequestPoint &point,
                    const workloads::KernelResult &result)
{
    if (capacity_ != 0)
        insert(point, result, point.fingerprint());
}

void
ResultCache::insert(const RequestPoint &point,
                    const workloads::KernelResult &result,
                    std::uint64_t fingerprint)
{
    if (capacity_ == 0)
        return;
    const std::uint64_t key = hasher_ ? hasher_(point) : fingerprint;
    if (const auto it = index_.find(key); it != index_.end()) {
        // Deterministic results make a value refresh a no-op for
        // same-point reinserts; for a colliding point, last writer
        // wins (the collision counter already flagged it on lookup).
        const bool samePoint = it->second->point == point;
        it->second->fingerprint = fingerprint;
        it->second->point = point;
        it->second->result = result;
        entries_.splice(entries_.begin(), entries_, it->second);
        if (!samePoint && spillHook_)
            spillHook_(point, result);
        return;
    }
    entries_.push_front(Entry{key, fingerprint, point, result});
    index_[key] = entries_.begin();
    ++stats_.insertions;
    if (entries_.size() > capacity_) {
        index_.erase(entries_.back().key);
        entries_.pop_back();
        ++stats_.evictions;
    }
    if (spillHook_)
        spillHook_(point, result);
}

void
ResultCache::visitLruToMru(
    const std::function<void(const RequestPoint &, std::uint64_t,
                             const workloads::KernelResult &)> &fn) const
{
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it)
        fn(it->point, it->fingerprint, it->result);
}

void
ResultCache::clear()
{
    entries_.clear();
    index_.clear();
}

} // namespace wisync::service
