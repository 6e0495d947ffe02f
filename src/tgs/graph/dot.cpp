#include "tgs/graph/dot.h"

#include <sstream>
#include <unordered_set>

namespace tgs {

std::string to_dot(const TaskGraph& g, const std::vector<NodeId>& highlight) {
  std::unordered_set<NodeId> hot(highlight.begin(), highlight.end());
  std::ostringstream os;
  os << "digraph \"" << g.name() << "\" {\n";
  os << "  rankdir=TB;\n  node [shape=circle, fontsize=10];\n";
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    os << "  " << i << " [label=\""
       << node_name(g, i) << "\\n"
       << g.weight(i) << "\"";
    if (hot.count(i)) os << ", style=filled, fillcolor=lightcoral";
    os << "];\n";
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adj& c : g.children(u)) {
      os << "  " << u << " -> " << c.node << " [label=\"" << c.cost << "\"";
      if (hot.count(u) && hot.count(c.node)) os << ", color=red, penwidth=2";
      os << "];\n";
    }
  os << "}\n";
  return os.str();
}

}  // namespace tgs
