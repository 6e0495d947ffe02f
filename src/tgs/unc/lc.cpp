// The path-peeling cluster core of LC (Kim & Browne). The registry's LC is
// the parameter point bl/static/append/lc; this file holds the clustering
// pass the ParamScheduler's ClusterStep invokes.
#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/unc/clustering.h"

namespace tgs {

std::vector<ProcId> lc_clusters(const TaskGraph& g) {
  const NodeId n = g.num_nodes();
  std::vector<bool> examined(n, false);
  DisjointSets ds(n);

  std::size_t remaining = n;
  while (remaining > 0) {
    // Longest (node+edge)-weight path over unexamined nodes. down[u] =
    // weight of the heaviest unexamined path starting at u; next[u] = the
    // successor realizing it (ties -> smallest id, via sorted children).
    std::vector<Time> down(n, 0);
    std::vector<NodeId> next(n, kNoNode);
    const auto& topo = g.topological_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeId u = *it;
      if (examined[u]) continue;
      Time best_kid = 0;
      NodeId best_next = kNoNode;
      for (const Adj& c : g.children(u)) {
        if (examined[c.node]) continue;
        const Time cand = c.cost + down[c.node];
        if (cand > best_kid) {
          best_kid = cand;
          best_next = c.node;
        }
      }
      down[u] = g.weight(u) + best_kid;
      next[u] = best_next;
    }

    // Path head: unexamined node with max down (ties -> smallest id).
    NodeId head = kNoNode;
    for (NodeId u = 0; u < n; ++u) {
      if (examined[u]) continue;
      if (head == kNoNode || down[u] > down[head]) head = u;
    }

    // Collapse the path into one cluster.
    NodeId prev = kNoNode;
    for (NodeId u = head; u != kNoNode; u = next[u]) {
      examined[u] = true;
      --remaining;
      if (prev != kNoNode) ds.merge(prev, u);
      prev = u;
    }
  }

  return dense_assignment(ds);
}

}  // namespace tgs
