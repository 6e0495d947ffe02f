#include "tgs/util/stats.h"

#include <algorithm>
#include <cmath>

namespace tgs {

void StatAccumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  sum_sq_ += x * x;
}

double StatAccumulator::mean() const {
  return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
}

double StatAccumulator::stddev() const {
  if (n_ < 2) return 0.0;
  const double n = static_cast<double>(n_);
  const double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1.0);
  return var <= 0.0 ? 0.0 : std::sqrt(var);
}

double StatAccumulator::min() const { return n_ == 0 ? 0.0 : min_; }
double StatAccumulator::max() const { return n_ == 0 ? 0.0 : max_; }

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  if (xs.size() % 2 == 1) return xs[mid];
  return 0.5 * (xs[mid - 1] + xs[mid]);
}

double geomean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double logsum = 0.0;
  for (double x : xs) logsum += std::log(x);
  return std::exp(logsum / static_cast<double>(xs.size()));
}

}  // namespace tgs
