/**
 * @file
 * Unit tests for the set-associative cache tag array.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "mem/cache.hh"

namespace {

using wisync::mem::CacheArray;
using wisync::mem::CacheLine;
using wisync::mem::canRead;
using wisync::mem::canWrite;
using wisync::mem::CohState;
using wisync::mem::isOwner;
using wisync::sim::Addr;

TEST(CacheArray, GeometryMatchesL1)
{
    CacheArray l1(32 * 1024, 2, 64);
    EXPECT_EQ(l1.numSets(), 256u);
    EXPECT_EQ(l1.assoc(), 2u);
    EXPECT_EQ(l1.lineBytes(), 64u);
}

TEST(CacheArray, LineOfMasksOffset)
{
    CacheArray c(1024, 2, 64);
    EXPECT_EQ(c.lineOf(0), 0u);
    EXPECT_EQ(c.lineOf(63), 0u);
    EXPECT_EQ(c.lineOf(64), 64u);
    EXPECT_EQ(c.lineOf(0x12345), static_cast<Addr>(0x12340));
}

TEST(CacheArray, MissThenHit)
{
    CacheArray c(1024, 2, 64);
    EXPECT_EQ(c.lookup(0x100), nullptr);
    CacheLine *slot = c.victimFor(0x100);
    ASSERT_NE(slot, nullptr);
    c.install(slot, 0x100, CohState::Shared);
    CacheLine *hit = c.lookup(0x100);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->state, CohState::Shared);
}

TEST(CacheArray, VictimPrefersInvalidWay)
{
    CacheArray c(1024, 2, 64); // 8 sets
    c.install(c.victimFor(0x000), 0x000, CohState::Modified);
    // Same set (stride = sets * line = 512).
    CacheLine *v = c.victimFor(0x200);
    EXPECT_FALSE(v->valid());
}

TEST(CacheArray, LruEvictsColdestWay)
{
    CacheArray c(1024, 2, 64); // 8 sets, 2 ways
    c.install(c.victimFor(0x000), 0x000, CohState::Shared);
    c.install(c.victimFor(0x200), 0x200, CohState::Shared);
    // Touch 0x000 so 0x200 becomes LRU.
    c.lookup(0x000);
    CacheLine *v = c.victimFor(0x400);
    ASSERT_TRUE(v->valid());
    EXPECT_EQ(v->lineAddr, 0x200u);
}

TEST(CacheArray, PeekDoesNotTouchLru)
{
    CacheArray c(1024, 2, 64);
    c.install(c.victimFor(0x000), 0x000, CohState::Shared);
    c.install(c.victimFor(0x200), 0x200, CohState::Shared);
    // Peek (not lookup) 0x000: it stays LRU and gets evicted.
    c.peek(0x000);
    CacheLine *v = c.victimFor(0x400);
    ASSERT_TRUE(v->valid());
    EXPECT_EQ(v->lineAddr, 0x000u);
}

TEST(CohStateHelpers, PermissionsTable)
{
    EXPECT_FALSE(canRead(CohState::Invalid));
    EXPECT_TRUE(canRead(CohState::Shared));
    EXPECT_TRUE(canRead(CohState::Owned));
    EXPECT_TRUE(canRead(CohState::Exclusive));
    EXPECT_TRUE(canRead(CohState::Modified));

    EXPECT_FALSE(canWrite(CohState::Invalid));
    EXPECT_FALSE(canWrite(CohState::Shared));
    EXPECT_FALSE(canWrite(CohState::Owned));
    EXPECT_TRUE(canWrite(CohState::Exclusive));
    EXPECT_TRUE(canWrite(CohState::Modified));

    EXPECT_FALSE(isOwner(CohState::Invalid));
    EXPECT_FALSE(isOwner(CohState::Shared));
    EXPECT_TRUE(isOwner(CohState::Owned));
    EXPECT_TRUE(isOwner(CohState::Exclusive));
    EXPECT_TRUE(isOwner(CohState::Modified));
}

TEST(CacheArray, DistinctSetsDoNotConflict)
{
    CacheArray c(1024, 2, 64); // 8 sets
    for (Addr a = 0; a < 8 * 64; a += 64)
        c.install(c.victimFor(a), a, CohState::Shared);
    for (Addr a = 0; a < 8 * 64; a += 64)
        EXPECT_NE(c.lookup(a), nullptr) << "line " << a;
}

/** Install @p a wherever victimFor puts it; returns the victim's state
 *  beforehand (Invalid for a free way) and, if valid, its address. */
std::pair<bool, Addr>
fill(CacheArray &c, Addr a)
{
    CacheLine *v = c.victimFor(a);
    const std::pair<bool, Addr> evicted{v->valid(),
                                        v->valid() ? v->lineAddr : 0};
    c.install(v, a, CohState::Modified);
    return evicted;
}

/**
 * An L2 bank of an N-bank interleave stores only the sets its lines
 * reach. Fed one bank's lines, it must hit, miss and pick victims
 * exactly as the full-size array does, with LRU touches (lookup) and
 * probes (peek) mixed in.
 */
TEST(CacheArrayCompact, BankMatchesFullSizeReference)
{
    constexpr std::uint32_t kSize = 512 * 1024, kAssoc = 8, kLine = 64;
    for (const std::uint32_t banks : {16u, 48u, 64u, 256u}) {
        SCOPED_TRACE(banks);
        const Addr home = banks - 1; // this bank's line-number residue
        CacheArray full(kSize, kAssoc, kLine);
        CacheArray bank(kSize, kAssoc, kLine, banks, home);
        EXPECT_EQ(bank.numSets(), full.numSets());
        EXPECT_LT(bank.mappedBytes(), full.mappedBytes());
        // Four times the bank's reachable capacity, so sets overflow.
        const std::uint32_t reach = full.numSets() / std::gcd(banks, 1024u);
        const std::uint64_t pool = 4ull * reach * kAssoc;
        std::uint64_t lcg = 0x5eed + banks;
        std::uint64_t evictions = 0;
        for (int i = 0; i < 50000; ++i) {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            const Addr a = ((lcg >> 33) % pool * banks + home) * kLine;
            if ((lcg >> 20) % 4 == 0) {
                ASSERT_EQ(bank.peek(a) != nullptr, full.peek(a) != nullptr)
                    << "probe " << i;
                continue;
            }
            const bool hit = full.lookup(a) != nullptr;
            ASSERT_EQ(bank.lookup(a) != nullptr, hit) << "access " << i;
            if (!hit) {
                const auto evicted = fill(full, a);
                ASSERT_EQ(fill(bank, a), evicted) << "access " << i;
                evictions += evicted.first;
            }
        }
        EXPECT_GT(evictions, 0u);
    }
}

TEST(CacheArrayCompact, TableOneBankOf64CoresMapsOnePage)
{
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const CacheArray bank(512 * 1024, 8, 64, 64);
    EXPECT_EQ(bank.mappedBytes(), page); // 16 sets x 8 ways x 24 B
    const CacheArray l1(32 * 1024, 2, 64); // private: every set reachable
    EXPECT_EQ(l1.mappedBytes(), 256u * 2 * sizeof(CacheLine));
}

/** A set count that is not a power of two keeps the division path:
 *  96 sets; 6 banks store 16 of them, 64 banks 3, 5 banks all 96. */
TEST(CacheArrayCompact, NonPowerOfTwoSetCountMatchesReference)
{
    constexpr std::uint32_t kSize = 96 * 3 * 64, kAssoc = 3, kLine = 64;
    for (const std::uint32_t banks : {6u, 64u, 5u}) {
        SCOPED_TRACE(banks);
        CacheArray full(kSize, kAssoc, kLine);
        CacheArray bank(kSize, kAssoc, kLine, banks, 1);
        std::uint64_t lcg = 99;
        for (int i = 0; i < 20000; ++i) {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            const Addr a = ((lcg >> 33) % 2048 * banks + 1) * kLine;
            const bool hit = full.lookup(a) != nullptr;
            ASSERT_EQ(bank.lookup(a) != nullptr, hit) << "access " << i;
            if (!hit) {
                ASSERT_EQ(fill(bank, a), fill(full, a)) << "access " << i;
            }
        }
    }
}

/** A bank only stores the sets its own lines reach, so a line homed at
 *  another bank would fold into a foreign set: installing one panics
 *  instead of silently changing the simulated cache. */
TEST(CacheArrayCompactDeathTest, InstallingALineHomedElsewherePanics)
{
    CacheArray bank(512 * 1024, 8, 64, 64, 5);
    const Addr own = (3 * 64 + 5) * 64;
    fill(bank, own); // congruent to 5 mod 64: accepted
    EXPECT_NE(bank.peek(own), nullptr);
    EXPECT_DEATH(fill(bank, (3 * 64 + 6) * 64), "assertion failed");
    CacheArray l1(32 * 1024, 2, 64); // private: every line is its own
    fill(l1, (3 * 64 + 6) * 64);
}

TEST(CacheArrayRecycle, RecycledStorageMissesEverywhereAndPicksFreshVictims)
{
    // 48 KiB, 3 ways: no other array in this binary has its mapped
    // size, so `fresh` really is a new zero-filled mapping.
    constexpr std::uint32_t kSize = 48 * 1024, kAssoc = 3, kLine = 64;
    const auto start = CacheArray::poolStats();
    CacheArray fresh(kSize, kAssoc, kLine);
    EXPECT_EQ(CacheArray::poolStats().mapped, start.mapped + 1);

    std::vector<Addr> resident;
    {
        CacheArray prev(kSize, kAssoc, kLine);
        prev.reset();
        prev.reset(); // lines below carry a non-zero epoch
        for (Addr a = 0; a < kSize; a += kLine) {
            EXPECT_FALSE(fill(prev, a).first);
            resident.push_back(a);
        }
        for (const Addr a : resident)
            ASSERT_NE(prev.peek(a), nullptr); // every way of every set
    }
    const auto released = CacheArray::poolStats();
    CacheArray next(kSize, kAssoc, kLine);
    EXPECT_EQ(CacheArray::poolStats().recycled, released.recycled + 1);

    for (const Addr a : resident) {
        EXPECT_EQ(next.peek(a), nullptr) << "stale line " << a;
        EXPECT_EQ(next.lookup(a), nullptr) << "stale line " << a;
    }
    // One deterministic access stream over twice the capacity: the
    // recycled array must hit, miss and evict exactly like the fresh
    // one, starting with a free way in every set.
    std::uint64_t lcg = 12345;
    for (int i = 0; i < 20000; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const Addr a = ((lcg >> 33) % (2 * kSize / kLine)) * kLine;
        const bool hit = fresh.lookup(a) != nullptr;
        ASSERT_EQ(next.lookup(a) != nullptr, hit) << "access " << i;
        if (!hit) {
            ASSERT_EQ(fill(next, a), fill(fresh, a)) << "access " << i;
        }
    }
}

TEST(CacheArrayRecycle, AnotherGeometryOfTheSameMappedSizeStartsEmpty)
{
    std::vector<Addr> resident;
    {
        CacheArray prev(1024, 2, 64); // 16 lines, one page
        for (Addr a = 0; a < 1024; a += 64) {
            fill(prev, a);
            resident.push_back(a);
        }
    }
    const auto released = CacheArray::poolStats();
    CacheArray next(2048, 4, 64); // 32 lines, still one page
    EXPECT_EQ(CacheArray::poolStats().recycled, released.recycled + 1);
    for (const Addr a : resident)
        EXPECT_EQ(next.peek(a), nullptr);
    for (Addr a = 0; a < 2048; a += 64)
        EXPECT_FALSE(fill(next, a).first) << "line " << a;
}

TEST(CacheArrayRecycle, ArraysReleasedOnOneThreadServeAnother)
{
    // Sweep workers come and go: arrays one thread releases are taken
    // over by builds on others, through one mutex-guarded free list.
    constexpr int kThreads = 4, kRounds = 200;
    const auto before = CacheArray::poolStats();
    std::vector<std::thread> threads;
    std::atomic<int> stale_hits{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &stale_hits] {
            for (int r = 0; r < kRounds; ++r) {
                const std::uint32_t size = (r + t) % 2 ? 32 * 1024 : 1024;
                CacheArray c(size, 2, 64);
                for (Addr a = 0; a < size; a += 64) {
                    if (c.peek(a) != nullptr)
                        ++stale_hits;
                    fill(c, a);
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(stale_hits.load(), 0);
    const auto after = CacheArray::poolStats();
    EXPECT_EQ((after.mapped - before.mapped) +
                  (after.recycled - before.recycled),
              static_cast<std::uint64_t>(kThreads * kRounds));
    EXPECT_GT(after.recycled - before.recycled, 0u);
}

} // namespace
