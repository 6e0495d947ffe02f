// MH -- Mapping Heuristic (El-Rewini & Lewis, 1990; paper ref [14]).
//
// Classification: APN, static list, non-CP-based, greedy. List scheduling
// in descending b-level order; each node goes to the processor that
// minimizes its start time, where the start time accounts for message
// routing delays and link contention via the routing table (probed against
// current link reservations, then committed). Tasks append (non-insertion).
// The paper observes MH "yields fairly long schedule lengths for large
// graphs" -- its static priorities cannot react to congestion discovered
// during scheduling.
#include "tgs/apn/apn_common.h"

#include "tgs/unc/cluster_schedule.h"

namespace tgs {

NetSchedule mh_schedule(const TaskGraph& g, const RoutingTable& routes,
                        SchedWorkspace& ws) {
  NetSchedule ns(g, routes);
  const int nprocs = routes.topology().num_procs();
  ApnSweepScratch& scratch = ws.apn_scratch();
  // Descending b-level is a topological order, so parents are always placed
  // before their children.
  for (NodeId n : blevel_order(g)) {
    ws.deadline().poll();
    // One one-to-all sweep replaces the per-processor probes: est[p] is
    // bit-identical to probing n's parent routes to p one by one, so the
    // strict < argmin keeps the smallest-id tie-break.
    apn_probe_est_all(ns, n, /*insertion=*/false, scratch);
    int best_p = 0;
    Time best_t = kTimeInf;
    for (int p = 0; p < nprocs; ++p) {
      if (scratch.est[p] < best_t) {
        best_t = scratch.est[p];
        best_p = p;
      }
    }
    apn_commit_node(ns, n, best_p, /*insertion=*/false);
  }
  return ns;
}

}  // namespace tgs
