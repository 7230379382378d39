#include "harness/sweep.hh"

#include <utility>

namespace wisync::harness {

core::Machine &
SweepHarness::acquire(const core::MachineConfig &cfg)
{
    for (std::size_t i = 0; i < machines_.size(); ++i) {
        if (machines_[i]->config().compatibleShape(cfg)) {
            // Move to the MRU end, reset, serve.
            auto m = std::move(machines_[i]);
            machines_.erase(machines_.begin() +
                            static_cast<std::ptrdiff_t>(i));
            m->reset(cfg);
            machines_.push_back(std::move(m));
            ++reuses_;
            return *machines_.back();
        }
    }
    // Evict least-recently-used shapes so their pages recycle into the
    // build below instead of staying pinned under dead tags.
    while (machines_.size() >= kCapacity)
        machines_.erase(machines_.begin());
    machines_.push_back(std::make_unique<core::Machine>(cfg));
    ++builds_;
    return *machines_.back();
}

} // namespace wisync::harness
