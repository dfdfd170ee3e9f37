/**
 * @file
 * Small integer-math helpers shared by the sharding and cost-model code,
 * plus the SplitMix64 stream seeded scenarios and matrices draw from.
 */
#ifndef MESHSLICE_UTIL_MATH_HPP_
#define MESHSLICE_UTIL_MATH_HPP_

#include <cstdint>
#include <vector>

namespace meshslice {

/** Ceiling division for non-negative integers. */
constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** Round @p a up to the next multiple of @p b. */
constexpr std::int64_t
roundUp(std::int64_t a, std::int64_t b)
{
    return ceilDiv(a, b) * b;
}

/** True iff @p v is a power of two (v > 0). */
constexpr bool
isPow2(std::int64_t v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

/** The SplitMix64 increment: draw e (from 0) of a stream seeded with
 *  s mixes the state s + (e+1) * gamma, so a stream can start at any
 *  index without drawing its prefix. */
constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/**
 * One SplitMix64 draw: advance @p state and return the next 64 bits.
 * Tiny, portable and — unlike `std::uniform_real_distribution` over a
 * standard engine — the same stream on every implementation, which
 * the bit-identical replay of seeded scenarios and matrices relies on.
 */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += kSplitMix64Gamma;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Uniform double in [0, 1) from the top 53 bits of a splitmix64 draw. */
inline double
uniform01(std::uint64_t &state)
{
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/** All positive divisors of @p n, in increasing order. */
std::vector<std::int64_t> divisorsOf(std::int64_t n);

/**
 * All (rows, cols) factorizations of @p n with rows * cols == n,
 * in increasing order of rows.
 */
std::vector<std::pair<std::int64_t, std::int64_t>>
meshShapesOf(std::int64_t n);

} // namespace meshslice

#endif // MESHSLICE_UTIL_MATH_HPP_
