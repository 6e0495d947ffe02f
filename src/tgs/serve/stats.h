// Server-side counters and per-algorithm latency histograms backing the
// "stats" protocol op.
//
// Latencies are recorded in microseconds into log2 buckets (bucket i holds
// values in [2^i, 2^(i+1))), which gives constant-size, lock-cheap
// histograms whose quantiles are exact to within a factor of two -- plenty
// to tell a 100us ETF call from a 100ms BSA call. Only *computed* schedule
// requests are recorded; cache hits are counted separately (their latency
// is the protocol floor, not the algorithm's).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tgs {

class LatencyHist {
 public:
  static constexpr int kBuckets = 40;  // 2^40 us ~ 12.7 days: plenty

  void record(std::uint64_t micros);

  std::uint64_t count() const { return count_; }
  std::uint64_t total_micros() const { return sum_; }
  std::uint64_t max_micros() const { return max_; }

  /// Upper edge of the bucket holding the q-quantile sample (q in [0, 1]);
  /// 0 when empty.
  std::uint64_t quantile_micros(double q) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// The server's event counters. Adding one is one row here and its name
/// in kCounterNames; the stats op reports every row under that name.
enum class Counter {
  kRequestsTotal,
  kRequestsOk,
  kRequestsError,
  kRequestsRejected,
  // Robustness counters (the fault/degradation surface of the stats op).
  kDeadlineExceeded,
  kShedRequests,
  kRetriesObserved,
  kCacheInsertFailures,
  kGraphsParsed,  // graph_from_string calls on the request path
  kCount,
};

inline constexpr const char* kCounterNames[] = {
    "requests_total", "requests_ok", "requests_error", "requests_rejected",
    "deadline_exceeded", "shed_requests", "retries_observed",
    "cache_insert_failures", "graphs_parsed",
};
static_assert(std::size(kCounterNames) ==
              static_cast<std::size_t>(Counter::kCount));

/// Aggregated request counters and per-algorithm latencies. One instance
/// per server; all methods are thread-safe. Counters are relaxed atomics,
/// so counting takes no lock; the mutex guards only the latency map.
class ServerStats {
 public:
  void count(Counter c) {
    counters_[static_cast<std::size_t>(c)].fetch_add(
        1, std::memory_order_relaxed);
  }
  std::uint64_t value(Counter c) const {
    return counters_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }

  /// Record one computed schedule for `algo` taking `micros`.
  void record_latency(const std::string& algo, std::uint64_t micros);

  /// Record one cache-served schedule for `algo`.
  void record_cache_hit(const std::string& algo);

  struct AlgoSnapshot {
    std::string algo;
    std::uint64_t computed = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t total_micros = 0;
    std::uint64_t p50_micros = 0;
    std::uint64_t p90_micros = 0;
    std::uint64_t max_micros = 0;
  };
  /// One entry per algorithm seen, sorted by name.
  std::vector<AlgoSnapshot> algos() const;

 private:
  struct AlgoStats {
    LatencyHist lat;
    std::uint64_t cache_hits = 0;
  };

  std::array<std::atomic<std::uint64_t>, std::size(kCounterNames)> counters_{};
  mutable std::mutex mu_;
  std::map<std::string, AlgoStats> algos_;
};

}  // namespace tgs
