// RGNOS -- Random Graphs with No known Optimal Solutions (paper §5.4).
//
// 250 graphs spanning three parameters:
//   size        v = 50..500 step 50,
//   CCR         {0.1, 0.5, 1.0, 2.0, 10.0},
//   parallelism {1..5}: the average WIDTH of the DAG is
//               parallelism * sqrt(v).
// Weights follow the RGBOS recipe. The generator is layered: nodes are
// grouped into layers whose sizes are drawn around the target width; every
// non-entry layer node gets one parent in the previous layer (giving the
// DAG its depth) and additional forward edges bring the fan-out to the
// target mean of v/10.
#pragma once

#include <cstdint>
#include <vector>

#include "tgs/graph/task_graph.h"

namespace tgs {

struct RgnosParams {
  NodeId num_nodes = 50;
  double ccr = 1.0;
  int parallelism = 3;  // width multiplier on sqrt(v)
  Cost mean_weight = 40;
  double fanout_divisor = 10;
  std::uint64_t seed = 1;
  /// Giant-tier scale path: when > 0, caps the mean extra fan-out per node
  /// at this value, so edge count is O(v * max_fanout) instead of the
  /// paper's O(v^2 / fanout_divisor) (mean v/10 per node is quadratic and
  /// intractable at v = 100k). 0 = the paper's original density; every
  /// existing graph is byte-identical in that mode.
  Cost max_fanout = 0;
};

TaskGraph rgnos_graph(const RgnosParams& params);

inline constexpr double kRgnosCcrs[] = {0.1, 0.5, 1.0, 2.0, 10.0};

}  // namespace tgs
