#include "mem/memory.hh"

#include "sim/logging.hh"

namespace wisync::mem {

void
Memory::write64(sim::Addr addr, std::uint64_t value)
{
    WISYNC_ASSERT((addr & 7) == 0, "unaligned 64-bit write");
    std::size_t i = probe(addr);
    if (slots_[i].addr == kEmpty) {
        // A new word; keep the table at most half full.
        if (2 * (occupied_.size() + 1) > slots_.size()) {
            grow();
            i = probe(addr);
        }
        slots_[i].addr = addr;
        occupied_.push_back(static_cast<std::uint32_t>(i));
    }
    slots_[i].value = value;
}

void
Memory::grow()
{
    std::vector<Slot> old(slots_.size() < 16 ? 16 : 2 * slots_.size(),
                          Slot{kEmpty, 0});
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (std::uint32_t &i : occupied_) {
        const Slot &w = old[i];
        i = static_cast<std::uint32_t>(probe(w.addr));
        slots_[i] = w;
    }
}

void
Memory::clear()
{
    for (const std::uint32_t i : occupied_)
        slots_[i] = Slot{kEmpty, 0};
    occupied_.clear();
}

std::uint64_t
Memory::fingerprint() const
{
    // Commutative accumulation makes the digest independent of the
    // order the words were written in.
    std::uint64_t acc = 0x5851F42D4C957F2Dull;
    for (const std::uint32_t i : occupied_)
        acc += sim::mix64(slots_[i].addr ^ sim::mix64(slots_[i].value));
    return acc;
}

} // namespace wisync::mem
