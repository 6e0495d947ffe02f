// Experiment bookkeeping: a pivot of (row key, algorithm) -> statistics,
// rendered in the shape of the paper's tables and figures (rows = graph
// size / CCR / matrix dimension; columns = algorithms).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "tgs/util/stats.h"
#include "tgs/util/table.h"

namespace tgs {

class PivotStats {
 public:
  /// `row_label` names the row dimension ("nodes", "CCR", ...); columns are
  /// fixed up front so that every row renders the same shape.
  PivotStats(std::string row_label, std::vector<std::string> columns);

  void add(double row_key, const std::string& column, double value);

  /// Mean per cell; missing cells render "-". Rows sorted ascending.
  Table render(int precision = 2) const;

  const StatAccumulator* cell(double row_key, const std::string& column) const;

 private:
  std::string row_label_;
  std::vector<std::string> columns_;
  std::map<double, std::map<std::string, StatAccumulator>> cells_;
};

}  // namespace tgs
