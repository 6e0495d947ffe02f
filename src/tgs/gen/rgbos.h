// RGBOS -- Random Graphs with Branch-and-bound Optimal Solutions
// (paper §5.2).
//
// Three CCR subsets (0.1, 1.0, 10.0); per subset the node count runs from
// 10 to 32 in steps of 2 (12 graphs). Weight distributions follow
// random_core.h. Optimal lengths are NOT stored here -- they are computed
// by optimal/bb_scheduler.h, exactly as the paper computed them with a
// parallel A*.
#pragma once

#include <cstdint>
#include <vector>

#include "tgs/gen/random_core.h"

namespace tgs {

inline constexpr double kRgbosCcrs[] = {0.1, 1.0, 10.0};
inline constexpr NodeId kRgbosMinNodes = 10;
inline constexpr NodeId kRgbosMaxNodes = 32;
inline constexpr NodeId kRgbosStep = 2;

/// One RGBOS graph (deterministic in (ccr, num_nodes, seed)).
TaskGraph rgbos_graph(double ccr, NodeId num_nodes, std::uint64_t seed);

}  // namespace tgs
