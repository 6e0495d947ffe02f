// Content-addressed schedule cache for the serving daemon.
//
// Keys are canonical strings assembled by the protocol layer:
//   <graph fingerprint hex> "|" <algo class> "|" <algorithm> "|" <machine>
// where the fingerprint covers exactly the scheduling-relevant graph
// content (graph/fingerprint.h) and <machine> is "procs=N" or the literal
// topology spec. Two requests with equal keys are guaranteed equal inputs
// to Scheduler::run (modulo a 2^-128 hash collision), so the cached result
// -- schedule length, metrics, and the full tgssched1 text -- can be
// replayed without scheduling.
//
// Bounded LRU: lookup() refreshes recency, insert() evicts the least
// recently used entry when full. Thread-safe; counters (hits, misses,
// evictions) feed the stats surface.
//
// GraphMemo sits in front of it: a bounded map from a request's graph
// text to that graph's fingerprint, so a resubmitted graph reaches its
// cache key without being parsed.
#pragma once

#include <cstdint>
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

/// The replayable part of a schedule response.
struct CachedSchedule {
  Time makespan = 0;
  double nsl = 0;
  int procs_used = 0;
  std::size_t num_messages = 0;   // APN only; 0 otherwise
  std::string schedule_text;      // tgssched1 serialization
};

class ScheduleCache {
 public:
  /// `capacity` <= 0 disables caching (every lookup misses, inserts are
  /// dropped).
  explicit ScheduleCache(std::size_t capacity) : capacity_(capacity) {}

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  /// Copies the entry into `out` and refreshes its recency. Counts a hit
  /// or a miss.
  bool lookup(const std::string& key, CachedSchedule* out);

  /// Inserts or overwrites; evicts the LRU entry when at capacity. May
  /// throw std::bad_alloc under memory pressure (or a scripted kCacheOom
  /// fault) -- callers treat that as "not cached", never as fatal.
  void insert(const std::string& key, const CachedSchedule& value);

  /// Copy of all entries, least recently used first, so that replaying
  /// them through insert() reproduces the same recency order. Feeds
  /// journal compaction.
  std::vector<std::pair<std::string, CachedSchedule>> snapshot() const;

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };
  Counters counters() const;

 private:
  struct Entry {
    std::string key;
    CachedSchedule value;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Graph text -> fingerprint, for text that has parsed before.
///
/// The key is a 128-bit hash of the decoded text plus its length. The hash
/// runs two independent 64-bit lanes, each folding 16 bytes per step into
/// its state with one 64x64->128-bit multiply, so it reads at about memory
/// speed: ~15 us for the ~295 KB text of a v = 500 graph, which takes ~25
/// times that to parse (BM_GraphMemoProbe, BM_GraphFromString). It is
/// keyed: every memo draws its four 64-bit seeds from std::random_device,
/// so a client cannot search offline for two texts that collide, and the
/// memo is no weaker than the unkeyed fingerprint the schedule cache
/// already trusts.
///
/// Callers insert only text that parsed, so a memo hit means the text is a
/// valid graph with that fingerprint. Bounded LRU at `capacity` entries
/// (~130 bytes each); capacity 0 disables it. Thread-safe.
class GraphMemo {
 public:
  struct Key {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    std::uint64_t size = 0;  // text length in bytes

    friend bool operator==(const Key&, const Key&) = default;
  };

  explicit GraphMemo(std::size_t capacity);

  GraphMemo(const GraphMemo&) = delete;
  GraphMemo& operator=(const GraphMemo&) = delete;

  bool enabled() const { return capacity_ > 0; }

  /// The keyed hash of `text`. Pure: needs no lock.
  Key key_of(std::string_view text) const;

  /// Copies the fingerprint into `out` and refreshes its recency. Counts a
  /// hit or a miss.
  bool lookup(const Key& key, GraphFingerprint* out);

  /// Inserts or refreshes; evicts the LRU entry when at capacity. May throw
  /// std::bad_alloc, which callers treat as "not memoized".
  void insert(const Key& key, const GraphFingerprint& fp);

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t size = 0;
  };
  Counters counters() const;

 private:
  struct Entry {
    Key key;
    GraphFingerprint fp;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const { return k.lo; }
  };

  std::uint64_t seed_[4] = {};
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace tgs
