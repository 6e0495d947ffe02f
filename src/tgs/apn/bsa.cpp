// BSA -- Bubble Scheduling and Allocation (Kwok & Ahmad; paper ref [2]).
//
// Classification: APN, incremental migration. The whole graph is first
// serially injected onto a single pivot processor (the one with the most
// links) in descending b-level order. Processors are then visited in
// breadth-first order from the pivot; each task on the current pivot tries
// to "bubble" to an adjacent processor when doing so strictly reduces its
// start time, with messages re-routed on the links. A migration that would
// lengthen the overall schedule is rolled back. The paper credits BSA's
// strength on large graphs to "an efficient scheduling of communication
// messages", which the explicit link re-routing reproduces.
//
// Implementation note: every tentative migration rebuilds the whole
// NetSchedule from the updated assignment and keeps it iff the makespan
// does not grow. The run holds two schedules: the current one and a spare
// that each rebuild resets and fills (apn_build_into, over a b-level order
// computed once per run). An accepted rebuild is swapped in and the old
// schedule becomes the spare; a rejected one stays the spare. Reset keeps
// every timeline's chunk buffers and every message array, so after the
// first few rebuilds a migration allocates nothing. An exact incremental
// engine that released and recommitted only the affected region was
// measured 2.7-3.5x slower than rebuilding and deleted: a migration off
// BSA's packed pivot shifts 70-80% of the schedule, so an in-place update
// touches most of it twice (docs/perf.md, "BSA" and the ledger).
#include "tgs/apn/apn_common.h"

#include <queue>
#include <utility>
#include <vector>

#include "tgs/unc/cluster_schedule.h"

namespace tgs {

NetSchedule bsa_schedule(const TaskGraph& g, const RoutingTable& routes,
                         SchedWorkspace& ws) {
  const Topology& topo = routes.topology();
  const int pivot0 = topo.max_degree_proc();

  // Serial injection: everything on the first pivot. Every tentative
  // migration rebuilds into `spare` and swaps it in on accept, so after
  // warm-up a rebuild reuses the buffers of the schedule it replaces.
  const std::vector<NodeId> order = blevel_order(g);
  std::vector<ProcId> assign(g.num_nodes(), static_cast<ProcId>(pivot0));
  NetSchedule ns(g, routes), spare(g, routes);
  apn_build_into(ns, order, assign, /*insertion=*/true);

  // Breadth-first pivot order from pivot0 (neighbours ascend by id).
  std::vector<int> pivots;
  {
    std::vector<bool> seen(topo.num_procs(), false);
    std::queue<int> q;
    q.push(pivot0);
    seen[pivot0] = true;
    while (!q.empty()) {
      const int p = q.front();
      q.pop();
      pivots.push_back(p);
      for (const Topology::Neighbor& nb : topo.neighbors(p)) {
        if (!seen[nb.proc]) {
          seen[nb.proc] = true;
          q.push(nb.proc);
        }
      }
    }
  }

  for (int pivot : pivots) {
    // Tasks currently on the pivot, in start-time order (a snapshot:
    // migrations mutate the timeline).
    std::vector<NodeId> on_pivot;
    for (const Interval& iv : ns.tasks().timeline(pivot).intervals())
      on_pivot.push_back(static_cast<NodeId>(iv.owner));

    for (NodeId n : on_pivot) {
      ws.deadline().poll();
      if (ns.tasks().proc(n) != pivot) continue;  // already bubbled away
      const Time cur_start = ns.tasks().start(n);

      // Best adjacent processor by probed start time: one one-to-all
      // arrival sweep, then ESTs for just the pivot's neighbours
      // (bit-identical to per-neighbour route probes).
      ApnSweepScratch& scratch = ws.apn_scratch();
      apn_probe_ready_all(ns, n, scratch);
      int best_p = -1;
      Time best_est = cur_start;
      for (const Topology::Neighbor& nb : topo.neighbors(pivot)) {
        const Time est = ns.tasks().earliest_start_on(
            nb.proc, scratch.ready[nb.proc], g.weight(n), /*insertion=*/true);
        if (est < best_est) {
          best_est = est;
          best_p = nb.proc;
        }
      }
      if (best_p < 0) continue;

      // Tentatively migrate by rebuilding the whole schedule from the
      // updated assignment, and keep the old one if the overall schedule
      // suffers.
      //
      // Tie rule: an EQUAL-makespan migration is accepted (<=, not <).
      // The task still moves even though the schedule as a whole gained
      // nothing -- its own start improved (the probe gate above is
      // strict), which is what lets later tasks bubble through the freed
      // pivot slot. The goldens (test_apn.cpp mesh23, the JSONL
      // snapshots) and Bsa.EqualMakespanMigrationIsAccepted pin this;
      // changing <= to < is a behaviour change, not a cleanup.
      const Time before = ns.makespan();
      assign[n] = static_cast<ProcId>(best_p);
      apn_build_into(spare, order, assign, /*insertion=*/true);
      if (spare.makespan() <= before) {
        std::swap(ns, spare);
      } else {
        assign[n] = static_cast<ProcId>(pivot);
      }
    }
  }
  return ns;
}

}  // namespace tgs
