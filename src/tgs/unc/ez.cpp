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
  const std::vector<Time> sl = static_levels(g);
  std::vector<Time> finish(v), avail(v);
  // Total weight of each cluster, kept under its label: the tasks of a
  // cluster run one after another, so the makespan is at least its load.
  std::vector<Time> load(v);
  for (NodeId n = 0; n < v; ++n) load[n] = g.weight(n);

  // assignment_makespan of the clustering with cluster `hi` merged into
  // `lo`, evaluated without copying any state. It stops as soon as the
  // makespan provably exceeds `limit` and returns a value above `limit`:
  // the running maximum only grows, and n's descendants on its static
  // path run one after another after FT(n), so the makespan is at least
  // FT(n) + SL(n) - w(n). The caller rejects the merge either way. A merge
  // that is accepted (len <= best) therefore always ran to the end and
  // returns the exact makespan.
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
      makespan = std::max(makespan, ft);
      const Time tail_bound = ft + (sl[n] - g.weight(n));
      if (tail_bound > limit) return tail_bound;
    }
    return makespan;
  };

  Time best = evaluate(0, kNoNode, kTimeInf);
  for (const EdgeRef& e : edges) {
    if (label[e.u] == label[e.v]) continue;  // already zeroed transitively
    deadline.poll();
    const NodeId lo = std::min(label[e.u], label[e.v]);
    const NodeId hi = std::max(label[e.u], label[e.v]);
    if (load[lo] + load[hi] > best) continue;  // the merged load alone is worse
    const Time len = evaluate(lo, hi, best);
    if (len <= best) {  // commit (Sarkar: accept when not worse)
      best = len;
      load[lo] += load[hi];
      for (NodeId& l : label)
        if (l == hi) l = lo;
    }
  }

  return densify(label);
}

}  // namespace tgs
