// DSC -- Dominant Sequence Clustering (Yang & Gerasoulis, 1994; paper ref
// [34]).
//
// Classification: UNC, CP-based, dynamic list, greedy. The dominant
// sequence (the critical path of the partially scheduled graph) is tracked
// through the priority tlevel(n) + blevel(n). Free nodes (all parents
// examined) are processed in descending priority; a free node tries to
// reduce its start time by merging into the cluster of one of its parents
// (zeroing the incoming edges from that cluster); the best strict
// improvement is accepted, otherwise the node opens its own cluster.
//
// Fidelity note: the full DSC uses constrained
// insertion inside clusters plus the DSRW partial-free-node rule; we
// implement append-only merging with strict-improvement acceptance. This
// keeps DSC's monotonicity (no node's start time ever increases) and its
// O((v + e) log v) flavour while simplifying cluster bookkeeping; the
// qualitative results of the paper (DSC close to DCP, far better than
// EZ/LC) are preserved.
#include "tgs/unc/clustering.h"

#include <algorithm>
#include <vector>

#include "tgs/graph/attributes.h"
#include "tgs/list/ready_list.h"

namespace tgs {

Schedule dsc_schedule(const TaskGraph& g, const SchedOptions& opt,
                      SchedWorkspace& ws) {
  (void)opt;
  const NodeId n = g.num_nodes();
  const std::vector<Time>& bl = ws.attrs().b_levels();

  // Cluster state: id per node (representative = first member), the finish
  // time of the cluster's last appended node, and the start time assigned
  // to each examined node.
  std::vector<NodeId> cluster(n, kNoNode);
  std::vector<Time> cluster_finish;  // indexed by dense cluster id
  std::vector<Time> start(n, 0);
  std::vector<NodeId> cand;  // the clusters of a free node's parents

  ReadyList free_nodes(g);  // "free" in DSC terms: all parents examined

  auto finish_of = [&](NodeId u) { return start[u] + g.weight(u); };

  while (!free_nodes.empty()) {
    // Highest tlevel + blevel among free nodes; tlevel of a free node is
    // its best start on a fresh cluster = max over parents FT + c.
    NodeId nf = kNoNode;
    Time nf_prio = -1;
    Time nf_tlevel = 0;
    for (NodeId u : free_nodes.ready()) {
      Time tl = 0;
      for (const Adj& par : g.parents(u))
        tl = std::max(tl, finish_of(par.node) + par.cost);
      const Time prio = tl + bl[u];
      if (prio > nf_prio || (prio == nf_prio && u < nf)) {
        nf = u;
        nf_prio = prio;
        nf_tlevel = tl;
      }
    }

    // Candidate clusters: those of nf's parents. Appending nf to cluster C
    // zeroes the edges from every parent inside C.
    Time best_start = nf_tlevel;  // fresh-cluster start
    NodeId best_cluster = kNoNode;
    cand.clear();
    for (const Adj& par : g.parents(nf)) {
      const NodeId c = cluster[par.node];
      if (std::find(cand.begin(), cand.end(), c) == cand.end())
        cand.push_back(c);
    }
    std::sort(cand.begin(), cand.end());
    for (NodeId c : cand) {
      Time ready = 0;
      for (const Adj& par : g.parents(nf)) {
        const Time ft = finish_of(par.node);
        ready = std::max(ready, cluster[par.node] == c ? ft : ft + par.cost);
      }
      const Time st = std::max(ready, cluster_finish[c]);
      if (st < best_start) {  // strict improvement only
        best_start = st;
        best_cluster = c;
      }
    }

    if (best_cluster == kNoNode) {
      // Open a fresh cluster for nf.
      best_cluster = static_cast<NodeId>(cluster_finish.size());
      cluster_finish.push_back(0);
    }
    cluster[nf] = best_cluster;
    start[nf] = best_start;
    cluster_finish[best_cluster] = best_start + g.weight(nf);
    free_nodes.mark_scheduled(nf);
  }

  // Materialize: placements are exactly the (cluster, start) pairs.
  ProcId max_c = 0;
  for (NodeId u = 0; u < n; ++u)
    max_c = std::max(max_c, static_cast<ProcId>(cluster[u]));
  Schedule sched(g, max_c + 1);
  for (NodeId u = 0; u < n; ++u)
    sched.place(u, static_cast<ProcId>(cluster[u]), start[u]);
  return sched;
}

}  // namespace tgs
