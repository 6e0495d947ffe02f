#include "tgs/gen/rgnos.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "tgs/gen/random_core.h"
#include "tgs/util/rng.h"

namespace tgs {

TaskGraph rgnos_graph(const RgnosParams& params) {
  Rng rng(params.seed);
  const NodeId v = params.num_nodes;
  const double width_target =
      std::max(1.0, params.parallelism * std::sqrt(static_cast<double>(v)));

  // Layer sizes around the width target.
  std::vector<NodeId> layer_of(v);
  std::vector<std::vector<NodeId>> layers;
  {
    NodeId assigned = 0;
    while (assigned < v) {
      const Cost mean = static_cast<Cost>(std::llround(width_target));
      NodeId size = static_cast<NodeId>(
          std::clamp<Cost>(rng.uniform_mean(std::max<Cost>(1, mean), 1), 1,
                           static_cast<Cost>(v - assigned)));
      layers.emplace_back();
      for (NodeId i = 0; i < size; ++i) {
        layer_of[assigned] = static_cast<NodeId>(layers.size() - 1);
        layers.back().push_back(assigned);
        ++assigned;
      }
    }
  }

  // Extra-edge fan-out mean: the paper's v/10 (quadratic in total), or the
  // capped scale-path mean when max_fanout is set.
  Cost fan_mean = std::max<Cost>(
      1, static_cast<Cost>(std::llround(v / params.fanout_divisor)));
  if (params.max_fanout > 0) fan_mean = std::min(fan_mean, params.max_fanout);

  TaskGraphBuilder b("rgnos_v" + std::to_string(v) + "_p" +
                     std::to_string(params.parallelism));
  b.reserve(v, static_cast<std::size_t>(v) +
                   static_cast<std::size_t>(v) *
                       static_cast<std::size_t>(fan_mean));
  for (NodeId i = 0; i < v; ++i)
    b.add_node(draw_comp_cost(rng, params.mean_weight));

  std::unordered_set<std::uint64_t> seen;
  auto try_edge = [&](NodeId u, NodeId w) {
    const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | w;
    if (!seen.insert(key).second) return false;
    b.add_edge(u, w, draw_comm_cost(rng, params.mean_weight, params.ccr));
    return true;
  };

  // Spine edges: every non-first-layer node gets a parent in the previous
  // layer, fixing the depth (and hence the width) of the DAG.
  for (std::size_t l = 1; l < layers.size(); ++l) {
    const auto& prev = layers[l - 1];
    for (NodeId node : layers[l]) {
      const NodeId parent =
          prev[static_cast<std::size_t>(rng.uniform_int(0, prev.size() - 1))];
      try_edge(parent, node);
    }
  }

  // Extra forward edges to reach the target fan-out mean per node.
  for (NodeId u = 0; u < v; ++u) {
    const std::size_t l = layer_of[u];
    if (l + 1 >= layers.size()) continue;
    // Candidate children: all nodes in strictly later layers.
    const NodeId first_later = layers[l + 1].front();
    const NodeId later_count = v - first_later;
    Cost k = rng.uniform_mean(fan_mean, 0);
    k = std::min<Cost>(k, later_count);
    for (Cost i = 0; i < k; ++i) {
      const NodeId w = static_cast<NodeId>(
          first_later + rng.uniform_int(0, later_count - 1));
      try_edge(u, w);  // duplicates silently skipped
    }
  }
  return b.finalize();
}

}  // namespace tgs
