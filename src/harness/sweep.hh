/**
 * @file
 * Machine reuse across sweep points.
 *
 * Every figure bench is a sweep over (config kind, core count,
 * variant, workload parameters); rebuilding the full Machine — mesh,
 * caches, directory, BM replicas — at each point dominates the sweep's
 * wall time. The harness keeps one Machine per structural shape
 * (MachineConfig::compatibleShape) and serves later points on that
 * shape through Machine::reset, which is observationally identical to
 * a fresh build (locked by tests/test_machine_reset.cc), so the
 * figures are bit-for-bit unchanged.
 */

#ifndef WISYNC_HARNESS_SWEEP_HH
#define WISYNC_HARNESS_SWEEP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/machine.hh"

namespace wisync::harness {

/**
 * Cache of reusable Machines, keyed by structural shape.
 *
 * The cache is LRU-bounded (kCapacity shapes): a figure sweep touches
 * at most the four ConfigKinds per core count. Tag arrays are backed
 * lazily, so a cached machine holds only the tag pages its runs
 * touched, but it does hold them: an unbounded cache across a
 * core-count sweep would keep every dead shape's touched tags,
 * directories and mesh resident, and keep its arrays out of the free
 * list the next shape's build recycles from.
 */
class SweepHarness
{
  public:
    SweepHarness() = default;

    /**
     * A machine configured exactly per @p cfg, ready to run from
     * cycle 0: either a reset shape-compatible cached machine or a
     * fresh build. The reference stays valid until the shape ages out
     * of the LRU cache.
     */
    core::Machine &acquire(const core::MachineConfig &cfg);

    /** Machines constructed / served by reset so far. */
    std::uint64_t builds() const { return builds_; }
    std::uint64_t reuses() const { return reuses_; }

    /** Drop every cached machine. */
    void clear() { machines_.clear(); }

    /** Max cached shapes. */
    static constexpr std::size_t kCapacity = 4;

  private:
    /** Most-recently-used machine last. */
    std::vector<std::unique_ptr<core::Machine>> machines_;
    std::uint64_t builds_ = 0;
    std::uint64_t reuses_ = 0;
};

} // namespace wisync::harness

#endif // WISYNC_HARNESS_SWEEP_HH
