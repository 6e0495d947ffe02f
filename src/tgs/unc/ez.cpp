// The edge-zeroing cluster core of EZ (Sarkar). The registry's EZ is the
// parameter point bl/static/append/ez; this file holds the clustering pass
// that param_schedule's cluster step calls.
#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "tgs/sched/workspace.h"
#include "tgs/unc/cluster_schedule.h"
#include "tgs/unc/clustering.h"

namespace tgs {

std::vector<ProcId> ez_clusters(const TaskGraph& g, SchedWorkspace& ws) {
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

  // Each cluster is labelled by its smallest member id, and densify()
  // numbers the labels by first appearance at the end. The makespan
  // depends only on which nodes share a cluster, not on the numbering, so
  // the labels serve as processor ids directly. A cluster's members form
  // an intrusive list from its label: next[] links them and tail[] /
  // size[] are kept under the label.
  const NodeId v = g.num_nodes();
  std::vector<NodeId> label(v), next(v, kNoNode), tail(v);
  std::iota(label.begin(), label.end(), NodeId{0});
  std::iota(tail.begin(), tail.end(), NodeId{0});
  std::vector<NodeId> size(v, 1);
  const std::vector<NodeId> order = blevel_order(ws.attrs().b_levels());
  const std::vector<Time>& sl = ws.attrs().static_levels();
  std::vector<Time> finish(v), avail(v);
  // Total weight of each cluster, kept under its label: the tasks of a
  // cluster run one after another, so the makespan is at least its load.
  std::vector<Time> load(v);
  for (NodeId n = 0; n < v; ++n) load[n] = g.weight(n);

  // A mutable copy of the parent CSR (TaskGraph::parent_slot order), parent
  // ids and costs in separate arrays, whose costs are the costs under the
  // current clustering: 0 inside a cluster, c(u, v) across clusters.
  // out_slot lists, in children() order, the parent slot of each of a
  // node's outgoing edges.
  std::vector<std::size_t> first(v + 1, 0), out_first(v + 1, 0);
  for (NodeId n = 0; n < v; ++n) {
    first[n + 1] = first[n] + g.num_parents(n);
    out_first[n + 1] = out_first[n] + g.num_children(n);
  }
  std::vector<NodeId> pnode;
  std::vector<Cost> pcost;
  pnode.reserve(g.num_edges());
  pcost.reserve(g.num_edges());
  std::vector<std::size_t> out_slot(g.num_edges());
  {
    std::vector<std::size_t> fill(out_first.begin(), out_first.end() - 1);
    // Nodes ascend and children() is sorted by id, so each parent's
    // outgoing edges are met in children() order.
    for (NodeId n = 0; n < v; ++n)
      for (const Adj& p : g.parents(n)) {
        out_slot[fill[p.node]++] = pnode.size();
        pnode.push_back(p.node);
        pcost.push_back(p.cost);
      }
  }
  std::vector<std::pair<std::size_t, Cost>> zeroed;  // slot, cost to restore

  // The committed clustering's critical paths: bl[n] is n's b-level under
  // the committed costs, crit[n] the child that attains it (kNoNode at an
  // exit), crit_slot[n] that edge's parent slot and crit_cost[n] its
  // committed cost. Computed at the start and again only after an
  // accepted merge (stale paths would stay exact but exit later). For a
  // tentative merge, cut[n] is how much the zeroed edges shorten the path
  // bl[n] follows, so that path is bl[n] - cut[n] long after the merge.
  std::vector<Time> bl(v), cut(v, 0);
  std::vector<NodeId> crit(v);
  std::vector<std::size_t> crit_slot(v);
  std::vector<Cost> crit_cost(v);
  const auto critical_paths = [&] {
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId n = *it;
      const std::span<const Adj> kids = g.children(n);
      Time down = 0;  // every bl is positive, so the first child sets crit
      crit[n] = kNoNode;
      for (std::size_t j = 0; j < kids.size(); ++j) {
        const std::size_t s = out_slot[out_first[n] + j];
        const Time len = pcost[s] + bl[kids[j].node];
        if (len > down) {
          down = len;
          crit[n] = kids[j].node;
          crit_slot[n] = s;
          crit_cost[n] = pcost[s];
        }
      }
      bl[n] = g.weight(n) + down;
    }
  };
  const auto cut_paths = [&] {
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId n = *it;
      cut[n] = crit[n] == kNoNode ? 0
                                  : cut[crit[n]] + (crit_cost[n] -
                                                    pcost[crit_slot[n]]);
    }
  };

  // assignment_makespan of the current labels and edge costs, evaluated
  // without copying any state. It stops as soon as the makespan provably
  // exceeds `limit` and returns a value above `limit`: the running maximum
  // only grows, and every path from n runs after FT(n), each edge and task
  // on it adding at least its cost and weight. Two such paths are known:
  // n's static path (SL(n), weights only) and its committed critical path
  // under the merged costs (bl[n] - cut[n]), so the makespan is at least
  // FT(n) + max(SL(n), bl[n] - cut[n]) - w(n). The caller rejects the
  // merge either way. A merge that is accepted (len <= best) therefore
  // always ran to the end and returns the exact makespan.
  const auto evaluate = [&](Time limit) {
    std::fill(avail.begin(), avail.end(), Time{0});
    Time makespan = 0;
    for (NodeId n : order) {
      Time ready = 0;
      for (std::size_t s = first[n]; s < first[n + 1]; ++s)
        ready = std::max(ready, finish[pnode[s]] + pcost[s]);
      const NodeId c = label[n];
      const Time ft = std::max(ready, avail[c]) + g.weight(n);
      finish[n] = ft;
      avail[c] = ft;
      makespan = std::max(makespan, ft);
      const Time tail_bound =
          ft + (std::max(sl[n], bl[n] - cut[n]) - g.weight(n));
      if (tail_bound > limit) return tail_bound;
    }
    return makespan;
  };

  critical_paths();
  Time best = evaluate(kTimeInf);
  for (const EdgeRef& e : edges) {
    if (label[e.u] == label[e.v]) continue;  // already zeroed transitively
    ws.deadline().poll();
    const NodeId lo = std::min(label[e.u], label[e.v]);
    const NodeId hi = std::max(label[e.u], label[e.v]);
    if (load[lo] + load[hi] > best) continue;  // the merged load alone is worse

    // Tentatively merge hi into lo: zero every lo-hi edge, found from the
    // smaller cluster's side, then relabel hi's members.
    const NodeId from = size[lo] <= size[hi] ? lo : hi;
    const NodeId to = from == lo ? hi : lo;
    zeroed.clear();
    const auto zero = [&](std::size_t slot) {
      zeroed.emplace_back(slot, pcost[slot]);
      pcost[slot] = 0;
    };
    for (NodeId m = from; m != kNoNode; m = next[m]) {
      for (std::size_t s = first[m]; s < first[m + 1]; ++s)
        if (label[pnode[s]] == to) zero(s);
      const std::span<const Adj> kids = g.children(m);
      for (std::size_t j = 0; j < kids.size(); ++j)
        if (label[kids[j].node] == to) zero(out_slot[out_first[m] + j]);
    }
    for (NodeId m = hi; m != kNoNode; m = next[m]) label[m] = lo;

    cut_paths();
    const Time len = evaluate(best);
    if (len <= best) {  // commit (Sarkar: accept when not worse)
      best = len;
      load[lo] += load[hi];
      size[lo] += size[hi];
      next[tail[lo]] = hi;
      tail[lo] = tail[hi];
      critical_paths();
    } else {
      for (const auto& [slot, cost] : zeroed) pcost[slot] = cost;
      for (NodeId m = hi; m != kNoNode; m = next[m]) label[m] = hi;
    }
  }

  return densify(label);
}

}  // namespace tgs
