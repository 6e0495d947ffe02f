// Frozen pre-refactor bodies of the named list schedulers that became
// parameter points of the param_schedule core (src/tgs/param/): HLFET,
// ISH, MCP (bnp/) and EZ, LC (unc/), as they stood at PR 7 when each was
// a standalone class. The property tests (test_param.cpp) require the
// param re-expressions to reproduce these schedules byte-for-byte -- the
// same contract reference_schedulers.h enforces for the incremental
// ETF/DLS (whose pre-refactor selection loops naive_etf/naive_dls already
// serve as the frozen references). Processor choice goes through the
// exhaustive scan of reference_proc_choice.h, not the library's pruned
// best_est_proc.
//
// Deliberately straight-line copies -- do not refactor or "optimize";
// byte-fidelity to the retired code is the point.
#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "reference_proc_choice.h"
#include "tgs/bnp/bnp_common.h"
#include "tgs/graph/attributes.h"
#include "tgs/list/ready_list.h"
#include "tgs/sched/schedule.h"
#include "tgs/sched/scheduler.h"
#include "tgs/unc/cluster_schedule.h"
#include "tgs/unc/clustering.h"

namespace tgs::reference {

/// The max-priority element of `candidates` (smallest id on ties);
/// kNoNode when there is none.
inline NodeId argmax_priority(const std::vector<NodeId>& candidates,
                              const std::vector<Time>& priority) {
  NodeId best = kNoNode;
  for (NodeId n : candidates) {
    if (best == kNoNode || priority[n] > priority[best] ||
        (priority[n] == priority[best] && n < best)) {
      best = n;
    }
  }
  return best;
}

/// HLFET: static-level list order, earliest-start processor, append.
inline Schedule original_hlfet(const TaskGraph& g, const SchedOptions& opt) {
  const std::vector<Time> sl = static_levels(g);
  Schedule sched(g, effective_procs(g, opt));
  std::vector<Time> ends;
  ProcScanner scanner(sched, effective_procs(g, opt), ends);
  ReadyList ready(g);
  Arrival probe;

  while (!ready.empty()) {
    const NodeId n = argmax_priority(ready.ready(), sl);
    const ProcChoice choice =
        best_est_proc_scan(sched, n, scanner, /*insertion=*/false, probe);
    sched.place(n, choice.proc, choice.start);
    scanner.note_placement(choice.proc);
    ready.mark_scheduled(n);
  }
  return sched;
}

/// ISH: HLFET plus greedy filling of the idle hole each placement creates.
inline Schedule original_ish(const TaskGraph& g, const SchedOptions& opt) {
  const std::vector<Time> sl = static_levels(g);
  Schedule sched(g, effective_procs(g, opt));
  std::vector<Time> ends;
  ProcScanner scanner(sched, effective_procs(g, opt), ends);
  ReadyList ready(g);
  Arrival probe;

  while (!ready.empty()) {
    const NodeId n = argmax_priority(ready.ready(), sl);
    const ProcChoice choice =
        best_est_proc_scan(sched, n, scanner, /*insertion=*/false, probe);
    const Time hole_start = sched.earliest_start_on(choice.proc, 0, 0, false);
    sched.place(n, choice.proc, choice.start);
    scanner.note_placement(choice.proc);
    ready.mark_scheduled(n);

    Time gap_from = hole_start;
    const Time gap_to = choice.start;
    while (gap_from < gap_to && !ready.empty()) {
      NodeId best_fill = kNoNode;
      Time best_start = 0;
      for (NodeId m : ready.ready()) {
        const Time dr = sched.data_ready(m, choice.proc);
        const Time st = std::max(dr, gap_from);
        if (st + g.weight(m) > gap_to) continue;
        const ProcChoice alt =
            best_est_proc_scan(sched, m, scanner, false, probe);
        if (alt.start < st) continue;
        if (best_fill == kNoNode || sl[m] > sl[best_fill] ||
            (sl[m] == sl[best_fill] && m < best_fill)) {
          best_fill = m;
          best_start = st;
        }
      }
      if (best_fill == kNoNode) break;
      sched.place(best_fill, choice.proc, best_start);
      ready.mark_scheduled(best_fill);
      gap_from = best_start + g.weight(best_fill);
    }
  }
  return sched;
}

/// MCP: lexicographic [alap, sorted child alaps] static order, insertion.
inline Schedule original_mcp(const TaskGraph& g, const SchedOptions& opt) {
  const std::vector<Time> alap = alap_times(g);

  std::vector<std::vector<Time>> prio(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    prio[n].push_back(alap[n]);
    for (const Adj& c : g.children(n)) prio[n].push_back(alap[c.node]);
    std::sort(prio[n].begin() + 1, prio[n].end());
  }

  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (prio[a] != prio[b]) return prio[a] < prio[b];
    return a < b;
  });

  Schedule sched(g, effective_procs(g, opt));
  std::vector<Time> ends;
  ProcScanner scanner(sched, effective_procs(g, opt), ends);
  Arrival probe;
  for (NodeId n : order) {
    const ProcChoice choice =
        best_est_proc_scan(sched, n, scanner, /*insertion=*/true, probe);
    sched.place(n, choice.proc, choice.start);
    scanner.note_placement(choice.proc);
  }
  return sched;
}

/// Cluster membership with deterministic representatives (the smallest
/// member id), the union-find the frozen EZ and LC cluster with.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
  }

  /// Representative (smallest member) of x's set.
  NodeId find(NodeId x) const {
    NodeId root = x;
    while (parent_[root] != root) root = parent_[root];
    // Path compression (state change is representation-only).
    while (parent_[x] != root) {
      const NodeId next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }

  /// Merge the sets of a and b; the representative of the union is the
  /// smaller of the two representatives. Returns the new representative.
  NodeId merge(NodeId a, NodeId b) {
    const NodeId ra = find(a), rb = find(b);
    if (ra == rb) return ra;
    const NodeId lo = ra < rb ? ra : rb;
    const NodeId hi = ra < rb ? rb : ra;
    parent_[hi] = lo;
    return lo;
  }

  bool same(NodeId a, NodeId b) const { return find(a) == find(b); }

  std::size_t size() const { return parent_.size(); }

 private:
  mutable std::vector<NodeId> parent_;
};

/// Map each node's cluster representative to a dense ProcId, numbering
/// clusters by the order their representatives appear (i.e., by smallest
/// member id). Result[n] is the processor/cluster of node n.
inline std::vector<ProcId> dense_assignment(const DisjointSets& ds) {
  std::vector<NodeId> labels(ds.size());
  for (NodeId i = 0; i < ds.size(); ++i) labels[i] = ds.find(i);
  return densify(labels);
}

/// EZ: Sarkar edge zeroing (merge committed iff the evaluated makespan
/// does not grow), materialized by the deterministic cluster schedule.
inline Schedule original_ez(const TaskGraph& g) {
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

  DisjointSets ds(g.num_nodes());
  const std::vector<NodeId> order = blevel_order(g);
  std::vector<Time> start_scratch, avail_scratch;

  std::vector<ProcId> assign = dense_assignment(ds);
  Time best =
      assignment_makespan(g, assign, order, start_scratch, avail_scratch);

  for (const EdgeRef& e : edges) {
    if (ds.same(e.u, e.v)) continue;
    DisjointSets snap = ds;
    ds.merge(e.u, e.v);
    assign = dense_assignment(ds);
    const Time len =
        assignment_makespan(g, assign, order, start_scratch, avail_scratch);
    if (len <= best) {
      best = len;
    } else {
      ds = std::move(snap);
    }
  }

  return schedule_with_assignment(g, dense_assignment(ds));
}

/// LC: peel the longest (node+edge) path over unexamined nodes into one
/// linear cluster per iteration.
inline Schedule original_lc(const TaskGraph& g) {
  const NodeId n = g.num_nodes();
  std::vector<bool> examined(n, false);
  DisjointSets ds(n);

  std::size_t remaining = n;
  while (remaining > 0) {
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

    NodeId head = kNoNode;
    for (NodeId u = 0; u < n; ++u) {
      if (examined[u]) continue;
      if (head == kNoNode || down[u] > down[head]) head = u;
    }

    NodeId prev = kNoNode;
    for (NodeId u = head; u != kNoNode; u = next[u]) {
      examined[u] = true;
      --remaining;
      if (prev != kNoNode) ds.merge(prev, u);
      prev = u;
    }
  }

  return schedule_with_assignment(g, dense_assignment(ds));
}

}  // namespace tgs::reference
