#include "tgs/unc/md.h"

#include <algorithm>

#include "tgs/bnp/bnp_common.h"
#include "tgs/graph/attributes.h"
#include "tgs/list/ready_list.h"

namespace tgs {

namespace {

// tlevel' with placed nodes pinned at their start times; cross-cluster
// communication kept for unplaced successors (placement unknown).
void pinned_t_levels(const TaskGraph& g, const Schedule& s,
                     std::vector<Time>& t) {
  t.assign(g.num_nodes(), 0);
  for (NodeId u : g.topological_order()) {
    if (s.is_placed(u)) {
      t[u] = s.start(u);
      continue;
    }
    Time best = 0;
    for (const Adj& par : g.parents(u)) {
      // Placed parent: exact finish; unplaced: estimated via its tlevel'.
      const Time ft = t[par.node] + g.weight(par.node);
      best = std::max(best, ft + par.cost);
    }
    t[u] = best;
  }
}

// blevel' on the unmodified graph (edge costs kept); placements do not
// shorten it because successors' processors are unknown.
void full_b_levels(const TaskGraph& g, std::vector<Time>& b) {
  b.assign(g.num_nodes(), 0);
  const auto& topo = g.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId u = *it;
    Time best = 0;
    for (const Adj& c : g.children(u)) best = std::max(best, c.cost + b[c.node]);
    b[u] = g.weight(u) + best;
  }
}

}  // namespace

Schedule MdScheduler::do_run(const TaskGraph& g, const SchedOptions& opt,
                             SchedWorkspace& ws) const {
  const int limit = effective_procs(g, opt);
  Schedule sched(g, limit);
  ProcScanner scanner(sched, limit, ws.pair_scratch().proc_ends);
  ReadyList ready(g);

  std::vector<Time> t, b;
  full_b_levels(g, b);  // static under our estimate; computed once

  while (!ready.empty()) {
    pinned_t_levels(g, sched, t);
    Time L = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) L = std::max(L, t[u] + b[u]);

    // Min relative mobility among ready nodes, compared exactly by
    // cross-multiplication: (L - s_a)/w_a < (L - s_b)/w_b.
    NodeId n = kNoNode;
    for (NodeId m : ready.ready()) {
      if (n == kNoNode) {
        n = m;
        continue;
      }
      const Time slack_m = (L - (t[m] + b[m])) * g.weight(n);
      const Time slack_n = (L - (t[n] + b[n])) * g.weight(m);
      if (slack_m < slack_n) n = m;
    }

    const Time window_end = L - b[n];  // latest CP-preserving start
    const Time dur = g.weight(n);
    const ArrivalInfo arrival = arrival_of(sched, n);

    // First processor whose earliest feasible slot lies inside the window.
    ProcId chosen = kNoProc;
    Time chosen_start = 0;
    const int count = scanner.scan_count();
    for (ProcId p = 0; p < count; ++p) {
      const Time st = sched.earliest_start_on(p, arrival.ready_on(p), dur,
                                              /*insertion=*/true);
      if (st <= window_end) {
        chosen = p;
        chosen_start = st;
        break;
      }
    }
    if (chosen == kNoProc) {
      // No window fit anywhere: fall back to globally earliest start.
      const ProcChoice c =
          best_est_proc(scanner, n, arrival, /*insertion=*/true);
      chosen = c.proc;
      chosen_start = c.start;
    }
    sched.place(n, chosen, chosen_start);
    scanner.note_placement(chosen);
    ready.mark_scheduled(n);
  }
  return sched;
}

}  // namespace tgs
