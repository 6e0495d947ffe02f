// MD -- Mobility Directed scheduling (Wu & Gajski, 1990; paper ref [32]).
//
// Classification: UNC, CP-based, dynamic list, non-greedy. The relative
// mobility of an unscheduled node under the current partial schedule is
//     M(n) = (L - (tlevel'(n) + blevel'(n))) / w(n)
// where tlevel'/blevel' pin already-placed nodes at their start times and L
// is the current critical-path length estimate. Critical-path nodes have
// zero mobility and are placed first. The selected node is placed on the
// FIRST processor (in index order) offering an idle slot inside the node's
// mobility window [tlevel'(n), L - blevel'(n)]; only when no processor can
// hold it inside the window is the minimum-EST processor used. Scanning
// used processors first is why the paper observes MD using relatively few
// processors. Attributes are recomputed after every placement: O(v(v+e)).
//
// Fidelity note: the original MD may also displace ("push") already
// scheduled nodes when inserting; we restrict placement to existing idle
// gaps, and we only select among nodes whose parents are all placed so that
// data-ready times are exact.
#include "tgs/unc/clustering.h"

#include <algorithm>

#include "tgs/bnp/bnp_common.h"
#include "tgs/graph/attributes.h"
#include "tgs/list/ready_list.h"
#include "tgs/unc/cluster_schedule.h"

namespace tgs {

Schedule md_schedule(const TaskGraph& g, const SchedOptions& opt,
                     SchedWorkspace& ws) {
  const int limit = effective_procs(g, opt);
  Schedule sched(g, limit);
  ProcScanner scanner(sched, limit, ws.pair_scratch().proc_ends);
  ReadyList ready(g);

  // blevel' on the unmodified graph (edge costs kept): placements do not
  // shorten it because successors' processors are unknown.
  const std::vector<Time>& b = ws.attrs().b_levels();
  std::vector<Time> t;

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
