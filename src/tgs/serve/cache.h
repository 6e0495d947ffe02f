// The serving daemon's two bounded maps, both one BoundedLru.
//
// ScheduleCache: the content-addressed schedule cache. Keys are canonical
// strings assembled by the protocol layer:
//   <graph fingerprint hex> "|" <algo class> "|" <algorithm> "|" <machine>
// where the fingerprint covers exactly the scheduling-relevant graph
// content (graph/fingerprint.h) and <machine> is "procs=N" or the literal
// topology spec. Two requests with equal keys are guaranteed equal inputs
// to Scheduler::run (modulo a 2^-128 hash collision), so the cached result
// -- schedule length, metrics, and the full tgssched1 text -- can be
// replayed without scheduling.
//
// GraphMemo sits in front of it: graph text -> that graph's fingerprint,
// so a resubmitted graph reaches its cache key without being parsed.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tgs/graph/fingerprint.h"
#include "tgs/util/types.h"

namespace tgs {

/// A thread-safe map of at most `capacity` entries. lookup() refreshes an
/// entry's recency; insert() overwrites an existing key, or evicts the
/// least recently used entry when full. Capacity 0 disables it: every
/// lookup misses and inserts are dropped. The counters feed the stats op.
template <class Key, class Value, class Hash = std::hash<Key>>
class BoundedLru {
 public:
  explicit BoundedLru(std::size_t capacity) : capacity_(capacity) {}

  BoundedLru(const BoundedLru&) = delete;
  BoundedLru& operator=(const BoundedLru&) = delete;

  bool enabled() const { return capacity_ > 0; }

  /// Copies the entry into `out` and refreshes its recency. Counts a hit
  /// or a miss.
  bool lookup(const Key& key, Value* out) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    *out = it->second->second;
    return true;
  }

  /// Inserts or overwrites, evicting the LRU entry when at capacity. May
  /// throw std::bad_alloc, which callers treat as "not stored", never as
  /// fatal. Two workers that computed one key both insert it; their values
  /// are equal (results are deterministic), so the last write wins.
  void insert(const Key& key, const Value& value) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = value;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() >= capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
    }
    lru_.emplace_front(key, value);
    index_.emplace(key, lru_.begin());
  }

  /// Copy of all entries, least recently used first, so that replaying
  /// them through insert() reproduces the same recency order. Feeds
  /// journal compaction.
  std::vector<std::pair<Key, Value>> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<Entry>(lru_.rbegin(), lru_.rend());
  }

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };
  Counters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {hits_, misses_, evictions_, lru_.size(), capacity_};
  }

 private:
  using Entry = std::pair<Key, Value>;

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// The replayable part of a schedule response.
struct CachedSchedule {
  Time makespan = 0;
  double nsl = 0;
  int procs_used = 0;
  std::size_t num_messages = 0;   // APN only; 0 otherwise
  std::string schedule_text;      // tgssched1 serialization
};

using ScheduleCache = BoundedLru<std::string, CachedSchedule>;

/// GraphMemo's key: a 128-bit hash of a graph text plus its length.
struct GraphTextKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::uint64_t size = 0;  // text length in bytes

  friend bool operator==(const GraphTextKey&, const GraphTextKey&) = default;
};

struct GraphTextKeyHash {
  std::size_t operator()(const GraphTextKey& k) const { return k.lo; }
};

/// Graph text -> fingerprint, for text that has parsed before.
///
/// The key hash runs two independent 64-bit lanes, each folding 16 bytes
/// per step into its state with one 64x64->128-bit multiply, so it reads at
/// about memory speed: ~15 us for the ~295 KB text of a v = 500 graph,
/// which takes ~25 times that to parse (BM_GraphMemoProbe,
/// BM_GraphFromString). It is keyed: every memo draws its four 64-bit seeds
/// from std::random_device, so a client cannot search offline for two
/// texts that collide, and the memo is no weaker than the unkeyed
/// fingerprint the schedule cache already trusts.
///
/// Callers insert only text that parsed, so a memo hit means the text is a
/// valid graph with that fingerprint. ~130 bytes per entry.
class GraphMemo
    : public BoundedLru<GraphTextKey, GraphFingerprint, GraphTextKeyHash> {
 public:
  using Key = GraphTextKey;

  explicit GraphMemo(std::size_t capacity);

  /// The keyed hash of `text`. Pure: needs no lock.
  Key key_of(std::string_view text) const;

 private:
  std::uint64_t seed_[4] = {};
};

}  // namespace tgs
