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

std::vector<ServerStats::AlgoSnapshot> ServerStats::algos() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AlgoSnapshot> out;
  for (const auto& [name, as] : algos_) {
    out.push_back({name, as.lat.count(), as.cache_hits,
                   as.lat.total_micros(), as.lat.quantile_micros(0.5),
                   as.lat.quantile_micros(0.9), as.lat.max_micros()});
  }
  return out;
}

}  // namespace tgs
