// Tiny deterministic graphs the tests build their cases from. They are
// fixtures, not generators any experiment or tool uses, so they live with
// the tests rather than in gen/.
#pragma once

#include <string>

#include "tgs/graph/task_graph.h"

namespace tgs {

/// Single chain n0 -> n1 -> ... (serial program).
inline TaskGraph chain_graph(NodeId length, Cost node_cost = 10,
                             Cost edge_cost = 5) {
  TaskGraphBuilder b("chain" + std::to_string(length));
  for (NodeId i = 0; i < length; ++i) b.add_node(node_cost);
  for (NodeId i = 0; i + 1 < length; ++i) b.add_edge(i, i + 1, edge_cost);
  return b.finalize();
}

/// n independent tasks (embarrassingly parallel).
inline TaskGraph independent_tasks(NodeId count, Cost node_cost = 10) {
  TaskGraphBuilder b("indep" + std::to_string(count));
  for (NodeId i = 0; i < count; ++i) b.add_node(node_cost);
  return b.finalize();
}

}  // namespace tgs
