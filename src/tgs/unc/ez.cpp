// The edge-zeroing cluster core of EZ (Sarkar). The registry's EZ is the
// parameter point bl/static/append/ez; this file holds the clustering pass
// the ParamScheduler's ClusterStep invokes.
#include <algorithm>
#include <numeric>
#include <vector>

#include "tgs/sched/workspace.h"
#include "tgs/unc/cluster_schedule.h"
#include "tgs/unc/clustering.h"

namespace tgs {

std::vector<ProcId> ez_clusters(const TaskGraph& g, RunDeadline& deadline) {
  struct EdgeRef {
    NodeId u, v;
    Cost cost;
  };
  std::vector<EdgeRef> edges;
  edges.reserve(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adj& c : g.children(u)) edges.push_back({u, c.node, c.cost});
  std::sort(edges.begin(), edges.end(), [](const EdgeRef& a, const EdgeRef& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });

  // Each cluster is labelled by its smallest member id -- the
  // representative dense_assignment numbers before densifying. The
  // makespan depends only on which nodes share a cluster, not on the
  // numbering, so the labels serve as processor ids directly.
  const NodeId v = g.num_nodes();
  std::vector<NodeId> label(v);
  std::iota(label.begin(), label.end(), NodeId{0});
  const std::vector<NodeId> order = blevel_order(g);
  std::vector<Time> finish(v), avail(v);

  // assignment_makespan of the clustering with cluster `hi` merged into
  // `lo`, evaluated without copying any state. It stops as soon as the
  // running makespan exceeds `limit`: the running maximum only grows, so
  // the tail cannot bring it back under and the caller rejects the merge
  // either way. A merge that is accepted (len <= best) therefore always
  // ran to the end and returns the exact makespan.
  const auto evaluate = [&](NodeId lo, NodeId hi, Time limit) {
    std::fill(avail.begin(), avail.end(), Time{0});
    Time makespan = 0;
    for (NodeId n : order) {
      const NodeId c = label[n] == hi ? lo : label[n];
      Time ready = 0;
      for (const Adj& par : g.parents(n)) {
        const NodeId pc = label[par.node] == hi ? lo : label[par.node];
        const Time ft = finish[par.node];
        ready = std::max(ready, pc == c ? ft : ft + par.cost);
      }
      const Time ft = std::max(ready, avail[c]) + g.weight(n);
      finish[n] = ft;
      avail[c] = ft;
      if (ft > makespan) {
        makespan = ft;
        if (makespan > limit) break;
      }
    }
    return makespan;
  };

  Time best = evaluate(0, kNoNode, kTimeInf);
  for (const EdgeRef& e : edges) {
    if (label[e.u] == label[e.v]) continue;  // already zeroed transitively
    deadline.poll();
    const NodeId lo = std::min(label[e.u], label[e.v]);
    const NodeId hi = std::max(label[e.u], label[e.v]);
    const Time len = evaluate(lo, hi, best);
    if (len <= best) {  // commit (Sarkar: accept when not worse)
      best = len;
      for (NodeId& l : label)
        if (l == hi) l = lo;
    }
  }

  return densify(label);
}

}  // namespace tgs
