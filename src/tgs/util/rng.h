// Deterministic random number generation for benchmark-graph synthesis.
//
// All tgs generators take an explicit 64-bit seed and derive their stream
// from it via SplitMix64 -> xoshiro256**. Neither the C library rand() nor
// std::mt19937 is used anywhere, so graph suites are reproducible across
// platforms and standard-library versions.
#pragma once

#include <array>
#include <cstdint>

#include "tgs/util/types.h"

namespace tgs {

/// xoshiro256** seeded through SplitMix64. Satisfies
/// std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()();

  /// Uniform integer in [lo, hi], inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Uniform integer with the given mean, spanning [max(lo_floor, 2*mean-hi),
  /// hi]. Mirrors the paper's "uniform distribution with mean 40
  /// (minimum = 2, maximum = 78)" construction: symmetric around the mean,
  /// clipped below at lo_floor.
  Cost uniform_mean(Cost mean, Cost lo_floor = 1);

  /// Derive an independent child stream (for per-graph sub-seeds).
  Rng split();

 private:
  std::array<std::uint64_t, 4> s_;
};

/// The SplitMix64 finalizer: a bijective, full-avalanche mix of one word.
/// splitmix64, graph fingerprints and the serve graph memo's keys are all
/// built on it, so its output must never change: fingerprints are cache
/// keys, and journals written by earlier daemons store them.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// SplitMix64 step; exposed for deterministic seed derivation in callers.
std::uint64_t splitmix64(std::uint64_t& state);

/// SeedSequence-style child-seed derivation: a well-mixed seed for stream
/// `stream` (job index, replication number, ...) of a sweep keyed by
/// `master_seed`. Unlike the `seed + i` / `seed ^ (v << k)` patterns it
/// replaces, nearby streams yield uncorrelated generators, and for a fixed
/// master_seed distinct streams never collide across parameter grids (the
/// map is bijective in `stream`; across different masters collisions are
/// merely astronomically unlikely, not impossible).
std::uint64_t derive_seed(std::uint64_t master_seed, std::uint64_t stream);

}  // namespace tgs
