#include "tgs/serve/stats.h"

#include <algorithm>

namespace tgs {

namespace {

int bucket_of(std::uint64_t micros) {
  int b = 0;
  while (micros > 1 && b < LatencyHist::kBuckets - 1) {
    micros >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

void LatencyHist::record(std::uint64_t micros) {
  ++buckets_[static_cast<std::size_t>(bucket_of(micros))];
  ++count_;
  sum_ += micros;
  max_ = std::max(max_, micros);
}

std::uint64_t LatencyHist::quantile_micros(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the quantile sample, 1-based ceil: p50 of 4 samples is rank 2.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     q * static_cast<double>(count_) + 0.5));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    // Bucket upper edge, clamped so no quantile can exceed the true max.
    if (seen >= rank) return std::min(std::uint64_t{1} << (b + 1), max_);
  }
  return max_;
}

void ServerStats::record_latency(const std::string& algo,
                                 std::uint64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  algos_[algo].lat.record(micros);
}

void ServerStats::record_cache_hit(const std::string& algo) {
  std::lock_guard<std::mutex> lock(mu_);
  ++algos_[algo].cache_hits;
}

ServerStats::Snapshot ServerStats::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  s.requests_total = requests_total_;
  s.requests_ok = requests_ok_;
  s.requests_error = requests_error_;
  s.requests_rejected = requests_rejected_;
  s.deadline_exceeded = deadline_exceeded_;
  s.shed_requests = shed_requests_;
  s.retries_observed = retries_observed_;
  s.cache_insert_failures = cache_insert_failures_;
  s.graphs_parsed = graphs_parsed_;
  for (const auto& [name, as] : algos_) {
    AlgoSnapshot a;
    a.algo = name;
    a.computed = as.lat.count();
    a.cache_hits = as.cache_hits;
    a.total_micros = as.lat.total_micros();
    a.p50_micros = as.lat.quantile_micros(0.5);
    a.p90_micros = as.lat.quantile_micros(0.9);
    a.max_micros = as.lat.max_micros();
    s.algos.push_back(std::move(a));
  }
  return s;
}

}  // namespace tgs
