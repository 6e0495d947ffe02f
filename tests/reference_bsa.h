// Frozen BSA as it stood before its rebuild went double-buffered: every
// tentative migration materializes a fresh NetSchedule from the updated
// assignment (apn_build_with_assignment, which re-sorts the b-level order
// and allocates every timeline and message array anew) and move-assigns it
// over the current one on accept. test_apn.cpp requires the production
// BsaScheduler to reproduce its whole NetSchedule byte for byte, and
// tgs_perf (BM_Bsa_Reference) measures the double buffer against it.
//
// apn_build_with_assignment lives here because only this reference and
// test_apn.cpp build a schedule from a whole assignment; the library
// rebuilds in place with apn_build_into.
//
// Deliberately straight-line -- do not "optimize" it; its simplicity is
// the point.
#pragma once

#include <cstddef>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tgs/apn/apn_common.h"
#include "tgs/unc/cluster_schedule.h"

namespace tgs {

/// Deterministically materialize a complete NetSchedule from a fixed
/// node -> processor assignment: tasks in descending b-level order,
/// messages committed per node by apn_build_into. Throws
/// std::invalid_argument unless assign.size() == g.num_nodes() (a short
/// vector must not become an OOB read).
inline NetSchedule apn_build_with_assignment(const TaskGraph& g,
                                             const RoutingTable& routes,
                                             const std::vector<ProcId>& assign,
                                             bool insertion) {
  if (assign.size() != static_cast<std::size_t>(g.num_nodes()))
    throw std::invalid_argument(
        "apn_build_with_assignment: assignment size != graph node count");
  NetSchedule ns(g, routes);
  apn_build_into(ns, blevel_order(g), assign, insertion);
  return ns;
}

}  // namespace tgs

namespace tgs::reference {

/// BSA with a fresh schedule per tentative migration. When `rebuilds` is
/// given, it receives the number of tentative migrations (rebuilds after
/// the serial injection).
inline NetSchedule original_bsa(const TaskGraph& g, const RoutingTable& routes,
                                std::size_t* rebuilds = nullptr) {
  const Topology& topo = routes.topology();
  const int pivot0 = topo.max_degree_proc();
  ApnSweepScratch scratch;
  std::size_t tried = 0;

  std::vector<ProcId> assign(g.num_nodes(), static_cast<ProcId>(pivot0));
  NetSchedule ns =
      apn_build_with_assignment(g, routes, assign, /*insertion=*/true);

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
    std::vector<NodeId> on_pivot;
    for (const Interval& iv : ns.tasks().timeline(pivot).intervals())
      on_pivot.push_back(static_cast<NodeId>(iv.owner));

    for (NodeId n : on_pivot) {
      if (ns.tasks().proc(n) != pivot) continue;
      const Time cur_start = ns.tasks().start(n);
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

      const Time before = ns.makespan();
      assign[n] = static_cast<ProcId>(best_p);
      ++tried;
      NetSchedule rebuilt =
          apn_build_with_assignment(g, routes, assign, /*insertion=*/true);
      if (rebuilt.makespan() <= before) {
        ns = std::move(rebuilt);
      } else {
        assign[n] = static_cast<ProcId>(pivot);
      }
    }
  }
  if (rebuilds != nullptr) *rebuilds = tried;
  return ns;
}

}  // namespace tgs::reference
