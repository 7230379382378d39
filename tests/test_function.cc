/**
 * @file
 * Unit tests for UniqueFunction's small-buffer optimization.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/function.hh"

namespace {

using wisync::sim::UniqueFunction;

TEST(UniqueFunction, EmptyByDefault)
{
    UniqueFunction f;
    EXPECT_FALSE(static_cast<bool>(f));
    EXPECT_FALSE(f.usesInlineStorage());
}

TEST(UniqueFunction, SmallTriviallyCopyableLambdaStaysInline)
{
    int hits = 0;
    int *p = &hits;
    UniqueFunction f([p] { ++*p; });
    EXPECT_TRUE(static_cast<bool>(f));
    EXPECT_TRUE(f.usesInlineStorage());
    f();
    f();
    EXPECT_EQ(hits, 2);
}

TEST(UniqueFunction, FullWidthPayloadStaysInline)
{
    // Exactly kInlineSize bytes of trivially copyable captures.
    struct Payload
    {
        std::uint64_t a[6];
    };
    static_assert(sizeof(Payload) == UniqueFunction::kInlineSize);
    static std::uint64_t sum;
    sum = 0;
    Payload payload{{1, 2, 3, 4, 5, 6}};
    UniqueFunction f([payload] {
        for (auto v : payload.a)
            sum += v;
    });
    EXPECT_TRUE(f.usesInlineStorage());
    f();
    EXPECT_EQ(sum, 21u);
}

TEST(UniqueFunction, OversizedPayloadFallsBackToHeap)
{
    struct Payload
    {
        std::uint64_t a[7]; // kInlineSize + 8
    };
    Payload payload{};
    payload.a[6] = 42;
    std::uint64_t out = 0;
    UniqueFunction f([payload, &out] { out = payload.a[6]; });
    EXPECT_FALSE(f.usesInlineStorage());
    f();
    EXPECT_EQ(out, 42u);
}

TEST(UniqueFunction, NonTriviallyCopyablePayloadFallsBackToHeap)
{
    auto owned = std::make_unique<int>(7);
    int out = 0;
    UniqueFunction f([owned = std::move(owned), &out] { out = *owned; });
    EXPECT_FALSE(f.usesInlineStorage());
    f();
    EXPECT_EQ(out, 7);
}

TEST(UniqueFunction, MovePreservesInlinePayload)
{
    int hits = 0;
    int *p = &hits;
    UniqueFunction a([p] { ++*p; });
    UniqueFunction b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    UniqueFunction c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(hits, 2);
}

TEST(UniqueFunction, MoveAssignDestroysPreviousPayload)
{
    // The heap payload of the assignee must be released exactly once.
    auto counter = std::make_shared<int>(0);
    struct Bump
    {
        std::shared_ptr<int> c;
        explicit Bump(std::shared_ptr<int> cc) : c(std::move(cc)) {}
        Bump(Bump &&) = default;
        ~Bump()
        {
            if (c)
                ++*c;
        }
        void operator()() {}
    };
    {
        UniqueFunction a{Bump{counter}};
        EXPECT_FALSE(a.usesInlineStorage());
        const int before = *counter;
        a = UniqueFunction([] {});
        EXPECT_EQ(*counter, before + 1);
    }
}

TEST(UniqueFunction, VectorCapturesWork)
{
    std::vector<int> v{1, 2, 3};
    int sum = 0;
    UniqueFunction f([v = std::move(v), &sum] {
        for (int x : v)
            sum += x;
    });
    EXPECT_FALSE(f.usesInlineStorage()); // vector: not trivially copyable
    f();
    EXPECT_EQ(sum, 6);
}

} // namespace
