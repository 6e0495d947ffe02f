// Eight bytes at a time in one 64-bit word ("SIMD within a register"): the
// byte tests the text readers (serve/json.cpp, graph/graph_io.cpp) run on
// every byte of a request. Every per-byte result is exact: no sum or
// difference below carries across a byte boundary, so the flag of a byte
// depends on that byte alone and the first flagged byte can be trusted.
#pragma once

#include <bit>
#include <cstdint>

namespace tgs::swar {

constexpr std::uint64_t kOnes = 0x0101010101010101ull;
constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
constexpr std::uint64_t kHigh = 0x8080808080808080ull;

/// The eight bytes at `p`, the first in the least significant byte on any
/// byte order (compilers turn the loop into one load).
inline std::uint64_t load(const char* p) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i)
    x |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  return x;
}

/// The high bit of every byte of `x` below `c` (c <= 0x80).
constexpr std::uint64_t below(std::uint64_t x, unsigned c) {
  return ~(((x & kLow7) + (0x80 - c) * kOnes) | x) & kHigh;
}

/// The high bit of every byte of `x` equal to `c`.
constexpr std::uint64_t equal(std::uint64_t x, unsigned char c) {
  const std::uint64_t y = x ^ (c * kOnes);
  return ~(((y & kLow7) + kLow7) | y) & kHigh;
}

/// Index of the first byte flagged in `mask` (8 when none is).
inline int first(std::uint64_t mask) { return std::countr_zero(mask) / 8; }

}  // namespace tgs::swar
