// Names made of a prefix and a number ("n12", "w3").
#pragma once

#include <string>
#include <string_view>

namespace tgs {

/// `prefix` followed by `n` in decimal. Built by appending: gcc 12 reports
/// a false -Wrestrict overlap in `"n" + std::to_string(n)` wherever it
/// inlines that concatenation.
inline std::string numbered_name(std::string_view prefix, long long n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

}  // namespace tgs
