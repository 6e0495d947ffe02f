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
#include <cstdint>
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

/// Aggregated request counters. One instance per server; all methods are
/// thread-safe.
class ServerStats {
 public:
  void count_request() { bump(&requests_total_); }
  void count_ok() { bump(&requests_ok_); }
  void count_error() { bump(&requests_error_); }
  void count_rejected() { bump(&requests_rejected_); }

  // Robustness counters (the fault/degradation surface of the stats op).
  void count_deadline_exceeded() { bump(&deadline_exceeded_); }
  void count_shed() { bump(&shed_requests_); }
  void count_retry_observed() { bump(&retries_observed_); }
  void count_cache_insert_failure() { bump(&cache_insert_failures_); }

  /// One graph_from_string call on the request path.
  void count_graph_parse() { bump(&graphs_parsed_); }

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
  struct Snapshot {
    std::uint64_t requests_total = 0;
    std::uint64_t requests_ok = 0;
    std::uint64_t requests_error = 0;
    std::uint64_t requests_rejected = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t shed_requests = 0;
    std::uint64_t retries_observed = 0;
    std::uint64_t cache_insert_failures = 0;
    std::uint64_t graphs_parsed = 0;
    std::vector<AlgoSnapshot> algos;  // sorted by algorithm name
  };
  Snapshot snapshot() const;

 private:
  struct AlgoStats {
    LatencyHist lat;
    std::uint64_t cache_hits = 0;
  };

  void bump(std::uint64_t* counter) {
    std::lock_guard<std::mutex> lock(mu_);
    ++*counter;
  }

  mutable std::mutex mu_;
  std::uint64_t requests_total_ = 0;
  std::uint64_t requests_ok_ = 0;
  std::uint64_t requests_error_ = 0;
  std::uint64_t requests_rejected_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
  std::uint64_t shed_requests_ = 0;
  std::uint64_t retries_observed_ = 0;
  std::uint64_t cache_insert_failures_ = 0;
  std::uint64_t graphs_parsed_ = 0;
  std::map<std::string, AlgoStats> algos_;
};

}  // namespace tgs
