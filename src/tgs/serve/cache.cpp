#include "tgs/serve/cache.h"

#include <cstring>
#include <random>

#include "tgs/util/rng.h"

namespace tgs {

namespace {

std::uint64_t load64(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

// The 128-bit product of a and b, its halves folded by xor: every bit of
// either input reaches the result.
std::uint64_t fold_mul(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
}

}  // namespace

GraphMemo::GraphMemo(std::size_t capacity) : BoundedLru(capacity) {
  std::random_device rd;
  for (std::uint64_t& s : seed_)
    s = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
}

GraphMemo::Key GraphMemo::key_of(std::string_view text) const {
  const char* p = text.data();
  std::size_t n = text.size();
  // Lane a takes bytes [0, 16) of every 32, lane b bytes [16, 32): the two
  // multiply chains are independent, so both run at once.
  std::uint64_t a = seed_[0], b = seed_[1];
  for (; n >= 32; p += 32, n -= 32) {
    a = fold_mul(load64(p) ^ a, load64(p + 8) ^ seed_[2]);
    b = fold_mul(load64(p + 16) ^ b, load64(p + 24) ^ seed_[3]);
  }
  // The last 0-31 bytes, zero-padded; the length below tells the padding
  // from text that really ends in zero bytes.
  char tail[32] = {};
  std::memcpy(tail, p, n);
  a = fold_mul(load64(tail) ^ a, load64(tail + 8) ^ seed_[2]);
  b = fold_mul(load64(tail + 16) ^ b, load64(tail + 24) ^ seed_[3]);
  const std::uint64_t size = text.size();
  return {mix64(a ^ mix64(b + size)), mix64(b ^ mix64(a ^ size)), size};
}

}  // namespace tgs
