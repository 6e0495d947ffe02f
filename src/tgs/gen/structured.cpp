#include "tgs/gen/structured.h"

#include <string>
#include <vector>

#include "tgs/util/names.h"

namespace tgs {

TaskGraph fork_join(NodeId width, Cost node_cost, Cost edge_cost) {
  TaskGraphBuilder b("forkjoin" + std::to_string(width));
  const NodeId src = b.add_node(node_cost, "fork");
  std::vector<NodeId> mid(width);
  for (NodeId i = 0; i < width; ++i)
    mid[i] = b.add_node(node_cost, numbered_name("w", i + 1));
  const NodeId sink = b.add_node(node_cost, "join");
  for (NodeId i = 0; i < width; ++i) {
    b.add_edge(src, mid[i], edge_cost);
    b.add_edge(mid[i], sink, edge_cost);
  }
  return b.finalize();
}

TaskGraph out_tree(int depth, int branching, Cost node_cost, Cost edge_cost) {
  TaskGraphBuilder b("outtree_d" + std::to_string(depth) + "_b" +
                     std::to_string(branching));
  std::vector<NodeId> frontier{b.add_node(node_cost)};
  for (int d = 0; d < depth; ++d) {
    std::vector<NodeId> next;
    for (NodeId parent : frontier) {
      for (int k = 0; k < branching; ++k) {
        const NodeId child = b.add_node(node_cost);
        b.add_edge(parent, child, edge_cost);
        next.push_back(child);
      }
    }
    frontier = std::move(next);
  }
  return b.finalize();
}

TaskGraph in_tree(int depth, int branching, Cost node_cost, Cost edge_cost) {
  TaskGraphBuilder b("intree_d" + std::to_string(depth) + "_b" +
                     std::to_string(branching));
  // Build level by level, leaves first.
  std::vector<NodeId> frontier;
  std::size_t leaves = 1;
  for (int d = 0; d < depth; ++d) leaves *= static_cast<std::size_t>(branching);
  for (std::size_t i = 0; i < leaves; ++i) frontier.push_back(b.add_node(node_cost));
  while (frontier.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i < frontier.size(); i += branching) {
      const NodeId parent = b.add_node(node_cost);
      for (int k = 0; k < branching; ++k)
        b.add_edge(frontier[i + k], parent, edge_cost);
      next.push_back(parent);
    }
    frontier = std::move(next);
  }
  return b.finalize();
}

TaskGraph diamond_lattice(int side, Cost node_cost, Cost edge_cost) {
  TaskGraphBuilder b("diamond" + std::to_string(side));
  std::vector<NodeId> id(static_cast<std::size_t>(side) * side);
  for (int i = 0; i < side; ++i)
    for (int j = 0; j < side; ++j)
      id[static_cast<std::size_t>(i) * side + j] = b.add_node(node_cost);
  for (int i = 0; i < side; ++i)
    for (int j = 0; j < side; ++j) {
      if (i + 1 < side)
        b.add_edge(id[static_cast<std::size_t>(i) * side + j],
                   id[static_cast<std::size_t>(i + 1) * side + j], edge_cost);
      if (j + 1 < side)
        b.add_edge(id[static_cast<std::size_t>(i) * side + j],
                   id[static_cast<std::size_t>(i) * side + j + 1], edge_cost);
    }
  return b.finalize();
}

}  // namespace tgs
