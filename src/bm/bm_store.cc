#include "bm/bm_store.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace wisync::bm {

BmStore::BmStore(sim::Engine &engine, std::uint32_t num_nodes,
                 std::uint32_t words_per_node, std::uint32_t num_chips)
    : engine_(engine), numNodes_(num_nodes), words_(words_per_node)
{
    regroup(num_chips);
    tags_.assign(words_, kNoPid);
    scopes_.assign(words_, BmScope::Global);
}

void
BmStore::regroup(std::uint32_t num_chips)
{
    WISYNC_ASSERT(num_chips > 0 && numNodes_ % num_chips == 0,
                  "BM nodes must divide evenly among chips");
    numChips_ = num_chips;
    nodesPerChip_ = numNodes_ / numChips_;
    values_.assign(static_cast<std::size_t>(numChips_) * words_, 0);
    rowOf_.resize(numNodes_);
    for (std::uint32_t n = 0; n < numNodes_; ++n)
        rowOf_[n] = n / nodesPerChip_ * words_;
}

std::uint64_t
BmStore::read(sim::NodeId node, sim::BmAddr addr) const
{
    WISYNC_ASSERT(node < numNodes_ && addr < words_, "BM read OOB");
    return values_[rowOf_[node] + addr];
}

void
BmStore::fireWatches(sim::NodeId first, sim::NodeId end, sim::BmAddr addr)
{
    // Firing only queues wake events, so no list changes under this
    // loop.
    if (armed_.empty() || armed_[addr] == nullptr)
        return;
    coro::WatchList *lists = armed_[addr].get();
    for (sim::NodeId n = first; n < end; ++n)
        lists[n].fire(engine_, addr);
}

void
BmStore::writeAll(sim::BmAddr addr, std::uint64_t value)
{
    WISYNC_ASSERT(addr < words_, "BM write OOB");
    for (std::uint32_t c = 0; c < numChips_; ++c)
        values_[std::size_t{c} * words_ + addr] = value;
    fireWatches(0, numNodes_, addr);
}

void
BmStore::writeChip(std::uint32_t chip, sim::BmAddr addr, std::uint64_t value)
{
    WISYNC_ASSERT(addr < words_ && chip < numChips_, "BM chip write OOB");
    values_[std::size_t{chip} * words_ + addr] = value;
    fireWatches(chip * nodesPerChip_, (chip + 1) * nodesPerChip_, addr);
}

void
BmStore::toggleChip(std::uint32_t chip, sim::BmAddr addr)
{
    WISYNC_ASSERT(addr < words_ && chip < numChips_, "BM chip toggle OOB");
    // The tone-release location "can only take the values zero or
    // non-zero" (§4.2.2).
    writeChip(chip, addr,
              values_[std::size_t{chip} * words_ + addr] == 0 ? 1 : 0);
}

bool
BmStore::replicasConsistent() const
{
    // Replicas within a chip share one array, so all agree iff every
    // chip's array equals the previous chip's.
    return std::equal(values_.begin() + words_, values_.end(),
                      values_.begin());
}

bool
BmStore::replicasConsistent(std::uint32_t cores_per_chip) const
{
    if (cores_per_chip == 0 || cores_per_chip >= numNodes_)
        return replicasConsistent();
    WISYNC_ASSERT(cores_per_chip == nodesPerChip_,
                  "consistency check against a foreign chip tiling");
    for (std::uint32_t w = 0; w < words_; ++w) {
        if (scopes_[w] != BmScope::Global)
            continue;
        for (std::uint32_t c = 1; c < numChips_; ++c)
            if (values_[std::size_t{c} * words_ + w] != values_[w])
                return false;
    }
    return true;
}

void
BmStore::setTag(sim::BmAddr addr, sim::Pid pid)
{
    WISYNC_ASSERT(addr < words_, "BM tag OOB");
    tags_[addr] = pid;
}

sim::Pid
BmStore::tag(sim::BmAddr addr) const
{
    WISYNC_ASSERT(addr < words_, "BM tag OOB");
    return tags_[addr];
}

void
BmStore::setScope(sim::BmAddr addr, BmScope scope)
{
    WISYNC_ASSERT(addr < words_, "BM scope OOB");
    scopes_[addr] = scope;
}

BmScope
BmStore::scope(sim::BmAddr addr) const
{
    WISYNC_ASSERT(addr < words_, "BM scope OOB");
    return scopes_[addr];
}

void
BmStore::reset()
{
    std::fill(values_.begin(), values_.end(), 0);
    std::fill(tags_.begin(), tags_.end(), kNoPid);
    std::fill(scopes_.begin(), scopes_.end(), BmScope::Global);
    WISYNC_ASSERT(armedWatches() == 0, "a watch outlived its frame");
}

std::uint64_t
BmStore::fingerprint() const
{
    std::uint64_t acc = 0x9E3779B97F4A7C15ull;
    for (std::uint32_t n = 0; n < numNodes_; ++n)
        for (std::uint32_t w = 0; w < words_; ++w)
            acc += sim::mix64((std::uint64_t{n} << 32 | w) ^
                              sim::mix64(values_[rowOf_[n] + w]));
    for (std::uint32_t w = 0; w < words_; ++w)
        acc += sim::mix64(~std::uint64_t{w} ^ sim::mix64(tags_[w]));
    return acc;
}

void
BmStore::arm(coro::Watch &w, sim::NodeId node, sim::BmAddr addr)
{
    WISYNC_ASSERT(node < numNodes_ && addr < words_, "BM watch OOB");
    if (armed_.empty())
        armed_.resize(words_);
    if (armed_[addr] == nullptr)
        armed_[addr] = std::make_unique<coro::WatchList[]>(numNodes_);
    w.arm(armed_[addr][node], addr);
}

std::size_t
BmStore::armedWatches() const
{
    std::size_t n = 0;
    for (const auto &lists : armed_)
        if (lists != nullptr)
            for (sim::NodeId node = 0; node < numNodes_; ++node)
                n += lists[node].size();
    return n;
}

} // namespace wisync::bm
