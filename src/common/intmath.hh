/**
 * @file
 * Small integer-math helpers used by cache indexing and sizing code,
 * and by the trace generator's division by profile constants.
 */

#ifndef RAT_COMMON_INTMATH_HH
#define RAT_COMMON_INTMATH_HH

#include <cstdint>

namespace rat {

/** True iff @p n is a power of two (0 is not). */
constexpr bool
isPowerOf2(std::uint64_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

/** Floor of log2(n); n must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t n)
{
    unsigned p = 0;
    while (n >>= 1)
        ++p;
    return p;
}

/** Ceiling of integer division a/b; b must be non-zero. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Division by a runtime-invariant divisor through a precomputed
 * reciprocal, exact for every 64-bit dividend and every divisor in
 * [1, 2^64) (Granlund and Montgomery, "Division by Invariant Integers
 * using Multiplication", PLDI 1994, Figure 4.1). With l = ceil(log2 d),
 * the reciprocal floor(2^(64+l) / d) + 1 is a 65-bit value whose top
 * bit is implicit; its low 64 bits are computed once in 128-bit
 * arithmetic, and a quotient costs one 64x64->128 multiply plus shifts.
 */
class InvariantDivisor
{
  public:
    /** @param d Divisor; must be non-zero. */
    constexpr explicit InvariantDivisor(std::uint64_t d = 1) : d_(d)
    {
        const unsigned l = d > 1 ? floorLog2(d - 1) + 1 : 0;
        mul_ = static_cast<std::uint64_t>(
            (((__uint128_t{1} << l) - d) << 64) / d + 1);
        sh1_ = l > 0 ? 1 : 0;
        sh2_ = l > 0 ? l - 1 : 0;
    }

    constexpr std::uint64_t divisor() const { return d_; }

    /** n / d. */
    constexpr std::uint64_t
    div(std::uint64_t n) const
    {
        const auto t = static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(mul_) * n) >> 64);
        return (t + ((n - t) >> sh1_)) >> sh2_;
    }

    /** n % d. */
    constexpr std::uint64_t mod(std::uint64_t n) const
    {
        return n - div(n) * d_;
    }

  private:
    std::uint64_t d_;
    std::uint64_t mul_ = 0;
    unsigned sh1_ = 0;
    unsigned sh2_ = 0;
};

} // namespace rat

#endif // RAT_COMMON_INTMATH_HH
