#include "tgs/util/rng.h"

#include <cmath>
#include <utility>

namespace tgs {

std::uint64_t splitmix64(std::uint64_t& state) {
  // mix64 adds the increment itself: it finalizes the advanced state.
  return mix64(std::exchange(state, state + 0x9E3779B97F4A7C15ULL));
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());
  // Lemire-style rejection-free-enough bounded draw with rejection to kill
  // modulo bias; span is tiny compared to 2^64 in all tgs uses.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
  std::uint64_t x;
  do {
    x = (*this)();
  } while (x >= limit);
  return lo + static_cast<std::int64_t>(x % span);
}

double Rng::uniform01() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

Cost Rng::uniform_mean(Cost mean, Cost lo_floor) {
  if (mean <= lo_floor) return lo_floor;
  const Cost half = mean - lo_floor;
  return uniform_int(mean - half, mean + half);
}

std::uint64_t derive_seed(std::uint64_t master_seed, std::uint64_t stream) {
  // Hash the stream index through one SplitMix64 step, fold it into the
  // master seed, and mix again: both arguments pass through a full
  // bijective mixer before the output, so single-bit input changes flip
  // ~half the output bits.
  std::uint64_t s = stream;
  const std::uint64_t h = splitmix64(s);
  std::uint64_t state = master_seed ^ h;
  return splitmix64(state);
}

Rng Rng::split() {
  std::uint64_t sub = (*this)();
  return Rng(sub);
}

}  // namespace tgs
