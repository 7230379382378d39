/**
 * @file
 * Unit tests for the functional backing store.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "mem/memory.hh"
#include "sim/heap_counter.hh"

namespace {

using wisync::mem::Memory;

TEST(Memory, ZeroInitialised)
{
    Memory m;
    EXPECT_EQ(m.read64(0x1000), 0u);
    EXPECT_EQ(m.footprintWords(), 0u);
}

TEST(Memory, ReadBackWrites)
{
    Memory m;
    m.write64(0x1000, 0xDEADBEEFCAFEF00Dull);
    EXPECT_EQ(m.read64(0x1000), 0xDEADBEEFCAFEF00Dull);
    m.write64(0x1000, 7);
    EXPECT_EQ(m.read64(0x1000), 7u);
    EXPECT_EQ(m.footprintWords(), 1u);
}

TEST(Memory, AdjacentWordsIndependent)
{
    Memory m;
    m.write64(0x2000, 1);
    m.write64(0x2008, 2);
    EXPECT_EQ(m.read64(0x2000), 1u);
    EXPECT_EQ(m.read64(0x2008), 2u);
}

/** Many words force the table to grow several times: every word reads
 *  back, and untouched words still read as zero. */
TEST(Memory, GrowingKeepsEveryWord)
{
    Memory m;
    for (std::uint64_t i = 0; i < 5000; ++i)
        m.write64(0x10000 + 8 * i * 7, i * 3 + 1);
    EXPECT_EQ(m.footprintWords(), 5000u);
    EXPECT_GE(m.capacity(), 2u * 5000u);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        ASSERT_EQ(m.read64(0x10000 + 8 * i * 7), i * 3 + 1);
        ASSERT_EQ(m.read64(0x10000 + 8 * i * 7 + 8), 0u);
    }
}

/** The fingerprint depends on the words held, not on the order they
 *  were first written in; a word written back to zero still counts. */
TEST(Memory, FingerprintIsOrderIndependent)
{
    Memory a, b;
    for (std::uint64_t i = 0; i < 100; ++i)
        a.write64(8 * i, i);
    for (std::uint64_t i = 100; i-- > 0;)
        b.write64(8 * i, i);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.write64(8 * 3, 0);
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(b.footprintWords(), 100u);
}

/** clear() forgets every word but keeps the table: refilling it with
 *  the same footprint allocates nothing. */
TEST(Memory, ClearKeepsCapacityAndRefillsWithoutAllocating)
{
    Memory m;
    const auto fill = [&m](std::uint64_t salt) {
        for (std::uint64_t i = 0; i < 3000; ++i)
            m.write64(0x400000 + 64 * i, i ^ salt);
    };
    fill(0);
    const std::uint64_t fingerprint = m.fingerprint();
    const std::size_t capacity = m.capacity();
    m.clear();
    EXPECT_EQ(m.footprintWords(), 0u);
    EXPECT_EQ(m.read64(0x400000 + 64 * 5), 0u);
    EXPECT_EQ(m.capacity(), capacity);

    const std::uint64_t before = wisync::sim::heapAllocs();
    fill(0);
    EXPECT_EQ(wisync::sim::heapAllocs(), before);
    EXPECT_EQ(m.fingerprint(), fingerprint);
    EXPECT_EQ(m.capacity(), capacity);
}

} // namespace
