/** @file Unit tests for integer-math helpers. */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/intmath.hh"
#include "common/rng.hh"

namespace rat {
namespace {

TEST(IntMath, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(65));
    EXPECT_TRUE(isPowerOf2(1ULL << 63));
}

TEST(IntMath, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(floorLog2(1ULL << 40), 40u);
}

TEST(IntMath, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
    EXPECT_EQ(divCeil(8, 4), 2u);
}

/**
 * Count the dividends of @p ns on which @p d disagrees with / or %,
 * recording the first in @p first.
 */
unsigned
divisionMismatches(const InvariantDivisor &d,
                   const std::vector<std::uint64_t> &ns,
                   std::uint64_t &first)
{
    unsigned bad = 0;
    for (const std::uint64_t n : ns) {
        if (d.div(n) != n / d.divisor() || d.mod(n) != n % d.divisor()) {
            if (bad++ == 0)
                first = n;
        }
    }
    return bad;
}

TEST(IntMath, InvariantDivisorMatchesHardwareDivision)
{
    constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    const std::uint64_t divisors[] = {
        1, 2, 3, 5, 24, 1024, 6144, 16384, 40ULL << 20,
        k32 - 1, k32, k32 + 1, kMax,
    };

    // Random dividends at every magnitude: a full-width draw shifted
    // right by a random amount.
    Xoshiro256 rng(0x1d1f);
    std::vector<std::uint64_t> randoms(1000000);
    for (std::uint64_t &n : randoms)
        n = rng.next() >> (rng.next() & 63);

    for (const std::uint64_t d : divisors) {
        const InvariantDivisor div(d);
        EXPECT_EQ(div.divisor(), d);
        std::vector<std::uint64_t> edges = {
            0, d - 1, d, d + 1, k32 - 1, k32 + 1, kMax, kMax - 1,
            kMax - d, 2 * d - 1, 2 * d,
        };
        std::uint64_t first = 0;
        EXPECT_EQ(divisionMismatches(div, edges, first), 0u)
            << "divisor " << d << ", first bad dividend " << first;
        EXPECT_EQ(divisionMismatches(div, randoms, first), 0u)
            << "divisor " << d << ", first bad dividend " << first;
    }
}

TEST(IntMath, InvariantDivisorMatchesOnRandomDivisors)
{
    // Divisors of every width, each against dividends around its own
    // multiples, where an inexact reciprocal would be off by one.
    Xoshiro256 rng(0xd17);
    for (unsigned i = 0; i < 2000; ++i) {
        std::uint64_t d = rng.next() >> (rng.next() & 63);
        if (d == 0)
            d = 1;
        const InvariantDivisor div(d);
        std::vector<std::uint64_t> ns;
        for (unsigned j = 0; j < 64; ++j) {
            const std::uint64_t q = rng.next() >> (rng.next() & 63);
            const std::uint64_t m = q * d; // wraps: still a valid dividend
            ns.insert(ns.end(), {m - 1, m, m + 1, rng.next()});
        }
        std::uint64_t first = 0;
        EXPECT_EQ(divisionMismatches(div, ns, first), 0u)
            << "divisor " << d << ", first bad dividend " << first;
    }
}

class PowerOf2Param : public ::testing::TestWithParam<unsigned> {};

TEST_P(PowerOf2Param, RoundTripsThroughLog2)
{
    const std::uint64_t v = std::uint64_t{1} << GetParam();
    EXPECT_TRUE(isPowerOf2(v));
    EXPECT_EQ(floorLog2(v), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllShifts, PowerOf2Param,
                         ::testing::Values(0u, 1u, 6u, 12u, 20u, 31u, 40u,
                                           63u));

} // namespace
} // namespace rat
