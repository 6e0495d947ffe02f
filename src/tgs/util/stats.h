// Small descriptive-statistics helpers used by the experiment harness.
#pragma once

#include <cstddef>
#include <vector>

namespace tgs {

/// Streaming accumulator: count, sum and mean.
class StatAccumulator {
 public:
  void add(double x) {
    ++n_;
    sum_ += x;
  }

  std::size_t count() const { return n_; }
  double mean() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;
};

/// Median of a copy of `xs` (average of middle two for even n); 0 if empty.
double median(std::vector<double> xs);

}  // namespace tgs
