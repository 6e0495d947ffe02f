#include "tgs/harness/experiment.h"

namespace tgs {

PivotStats::PivotStats(std::string row_label, std::vector<std::string> columns)
    : row_label_(std::move(row_label)), columns_(std::move(columns)) {}

void PivotStats::add(double row_key, const std::string& column, double value) {
  cells_[row_key][column].add(value);
}

Table PivotStats::render(int precision) const {
  std::vector<std::string> headers{row_label_};
  for (const auto& c : columns_) headers.push_back(c);
  Table t(std::move(headers));
  for (const auto& [key, row] : cells_) {
    std::vector<std::string> cells;
    // Integral row keys print without decimals.
    if (key == static_cast<double>(static_cast<long long>(key)))
      cells.push_back(Table::fmt_int(static_cast<long long>(key)));
    else
      cells.push_back(Table::fmt(key, 2));
    for (const auto& c : columns_) {
      auto it = row.find(c);
      cells.push_back(it == row.end() ? "-" : Table::fmt(it->second.mean(), precision));
    }
    t.add_row(std::move(cells));
  }
  return t;
}

const StatAccumulator* PivotStats::cell(double row_key,
                                        const std::string& column) const {
  auto rit = cells_.find(row_key);
  if (rit == cells_.end()) return nullptr;
  auto cit = rit->second.find(column);
  if (cit == rit->second.end()) return nullptr;
  return &cit->second;
}

}  // namespace tgs
