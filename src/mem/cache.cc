#include "mem/cache.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <bit>
#include <mutex>
#include <new>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace wisync::mem {

static_assert(std::is_trivial_v<CacheLine>,
              "tag arrays live in raw zero-filled pages");

namespace {

/**
 * Process-wide free list of tag-array mappings. A machine maps two
 * arrays per core; without recycling, a service that builds a machine
 * per request would re-map and re-fault them every time. One list
 * serves every thread, because sweep workers come and go while the
 * arrays their machines released stay useful. It is capped: past
 * kMaxPooled a released mapping is unmapped. Only pages a previous
 * owner touched are resident, so the cap bounds address space far more
 * than memory.
 */
class MappingPool
{
  public:
    static constexpr std::size_t kMaxPooled = 1024;

    /** A mapping plus the first epoch its next owner may use. */
    struct Mapping
    {
        void *base = nullptr;
        std::uint32_t firstGen = 0;
    };

    Mapping
    take(std::size_t bytes)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (Bucket &b : buckets_) {
                if (b.bytes == bytes && !b.free.empty()) {
                    const Mapping m = b.free.back();
                    b.free.pop_back();
                    --pooled_;
                    ++recycled_;
                    return m;
                }
            }
            ++mapped_;
        }
        void *base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base == MAP_FAILED)
            throw std::bad_alloc();
        return {base, 0};
    }

    void
    give(std::size_t bytes, Mapping m)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (pooled_ < kMaxPooled) {
                bucket(bytes).free.push_back(m);
                ++pooled_;
                return;
            }
        }
        ::munmap(m.base, bytes);
    }

    CacheArray::PoolStats
    stats()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return {mapped_, recycled_};
    }

  private:
    /** Released mappings of one size, most recent last. */
    struct Bucket
    {
        std::size_t bytes;
        std::vector<Mapping> free;
    };

    Bucket &
    bucket(std::size_t bytes)
    {
        for (Bucket &b : buckets_)
            if (b.bytes == bytes)
                return b;
        return buckets_.emplace_back(Bucket{bytes, {}});
    }

    std::mutex mu_;
    std::vector<Bucket> buckets_;
    std::size_t pooled_ = 0;
    std::uint64_t mapped_ = 0;
    std::uint64_t recycled_ = 0;
};

/** Never destroyed: arrays released during static teardown still
 *  have a pool to return to. */
MappingPool &
mappingPool()
{
    static MappingPool *pool = new MappingPool;
    return *pool;
}

std::size_t
pageBytes()
{
    static const auto page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return page;
}

} // namespace

CacheArray::CacheArray(std::uint32_t size_bytes, std::uint32_t assoc,
                       std::uint32_t line_bytes, std::uint32_t interleave,
                       std::uint32_t residue)
    : assoc_(assoc), lineBytes_(line_bytes)
{
    WISYNC_ASSERT(size_bytes > 0 && assoc > 0 && line_bytes > 0 &&
                      residue < interleave,
                  "bad cache geometry");
    WISYNC_ASSERT(std::has_single_bit(line_bytes),
                  "line size must be a power of two");
    WISYNC_ASSERT(size_bytes % (assoc * line_bytes) == 0,
                  "size must be a multiple of assoc * line");
    lineShift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes));
    numSets_ = size_bytes / (assoc * line_bytes);
    const std::uint32_t stride = std::gcd(interleave, numSets_);
    stride_ = sim::Divisor(stride);
    reach_ = sim::Divisor(numSets_ / stride);
    residue_ = residue % stride;
    const std::size_t bytes = static_cast<std::size_t>(numSets_ / stride) *
                              assoc_ * sizeof(CacheLine);
    mapBytes_ = (bytes + pageBytes() - 1) / pageBytes() * pageBytes();
    // Every line a previous owner left behind carries an epoch below
    // firstGen, so it reads invalid without being cleared. Owners
    // stride the mapping identically from its base, whatever their
    // geometry, so no line is ever read torn.
    const MappingPool::Mapping m = mappingPool().take(mapBytes_);
    lines_ = static_cast<CacheLine *>(m.base);
    gen_ = m.firstGen;
}

CacheArray::~CacheArray()
{
    if (lines_ != nullptr)
        mappingPool().give(mapBytes_, {lines_, gen_ + 1});
}

CacheArray::CacheArray(CacheArray &&other) noexcept
    : assoc_(other.assoc_), lineBytes_(other.lineBytes_),
      lineShift_(other.lineShift_), numSets_(other.numSets_),
      stride_(other.stride_), reach_(other.reach_),
      residue_(other.residue_), clock_(other.clock_), gen_(other.gen_),
      lines_(std::exchange(other.lines_, nullptr)),
      mapBytes_(other.mapBytes_)
{}

CacheArray::PoolStats
CacheArray::poolStats()
{
    return mappingPool().stats();
}

void
CacheArray::reset()
{
    ++gen_;
    clock_ = 0;
}

CacheLine *
CacheArray::lookup(sim::Addr line_addr)
{
    CacheLine *line = peek(line_addr);
    if (line)
        line->lruStamp = ++clock_;
    return line;
}

CacheLine *
CacheArray::peek(sim::Addr line_addr)
{
    const std::size_t base =
        static_cast<std::size_t>(setOf(line_addr)) * assoc_;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        CacheLine &line = lines_[base + w];
        if (line.gen == gen_ && line.valid() &&
            line.lineAddr == line_addr)
            return &line;
    }
    return nullptr;
}

CacheLine *
CacheArray::victimFor(sim::Addr line_addr)
{
    const std::size_t base =
        static_cast<std::size_t>(setOf(line_addr)) * assoc_;
    CacheLine *victim = &lines_[base];
    bool victim_valid = false;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        CacheLine &line = lines_[base + w];
        if (line.gen != gen_ || !line.valid()) {
            // Stale-epoch lines are free slots; scrub so the caller
            // never mistakes one for an evictable resident.
            line.state = CohState::Invalid;
            line.gen = gen_;
            return &line;
        }
        if (!victim_valid || line.lruStamp < victim->lruStamp) {
            victim = &line;
            victim_valid = true;
        }
    }
    return victim;
}

void
CacheArray::install(CacheLine *slot, sim::Addr line_addr, CohState state)
{
    WISYNC_ASSERT(slot != nullptr, "install into null slot");
    WISYNC_ASSERT(stride_.mod(line_addr >> lineShift_) == residue_,
                  "line is not homed at this bank");
    slot->lineAddr = line_addr;
    slot->state = state;
    slot->lruStamp = ++clock_;
    slot->gen = gen_;
}

} // namespace wisync::mem
