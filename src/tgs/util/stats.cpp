#include "tgs/util/stats.h"

#include <algorithm>

namespace tgs {

double StatAccumulator::mean() const {
  return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  if (xs.size() % 2 == 1) return xs[mid];
  return 0.5 * (xs[mid - 1] + xs[mid]);
}

}  // namespace tgs
