#include "tgs/serve/cache.h"

#include <cstring>
#include <new>
#include <random>

#include "tgs/serve/faults.h"

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

// splitmix64 finalizer.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

bool ScheduleCache::lookup(const std::string& key, CachedSchedule* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++hits_;
  *out = it->second->value;
  return true;
}

void ScheduleCache::insert(const std::string& key,
                           const CachedSchedule& value) {
  if (capacity_ == 0) return;
  // Scripted allocation failure: the cache is an accelerator, so callers
  // must survive insert() throwing exactly as they would a real OOM.
  if (FaultPlan::hit(FaultPoint::kCacheOom)) throw std::bad_alloc();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent compute of the same key: both workers insert, last write
    // wins. Results are deterministic, so the values are identical anyway.
    it->second->value = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(Entry{key, value});
  index_[key] = lru_.begin();
}

std::vector<std::pair<std::string, CachedSchedule>> ScheduleCache::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, CachedSchedule>> out;
  out.reserve(lru_.size());
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it)  // LRU first
    out.emplace_back(it->key, it->value);
  return out;
}

ScheduleCache::Counters ScheduleCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {hits_, misses_, evictions_, lru_.size(), capacity_};
}

GraphMemo::GraphMemo(std::size_t capacity) : capacity_(capacity) {
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

bool GraphMemo::lookup(const Key& key, GraphFingerprint* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  *out = it->second->fp;
  return true;
}

void GraphMemo::insert(const Key& key, const GraphFingerprint& fp) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Two readers parsed the same new text at once; both computed fp.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(Entry{key, fp});
  index_[key] = lru_.begin();
}

GraphMemo::Counters GraphMemo::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {hits_, misses_, lru_.size()};
}

}  // namespace tgs
