// Per-destination APN probes: the route walks the one-to-all routing-tree
// sweeps (NetSchedule::probe_arrival_all, apn_probe_est_all) replaced.
// They are the ground truth the sweep property tests (test_net.cpp,
// test_apn.cpp) compare against and the baseline of the naive DLS(APN)
// reference and the tgs_perf probe benchmarks.
//
// Deliberately straight-line -- do not "optimize" them; their simplicity
// is the point.
#pragma once

#include <algorithm>

#include "tgs/net/net_schedule.h"

namespace tgs::reference {

/// Arrival time a message of `size` leaving `src` no earlier than `depart`
/// would have at `dst` if routed now: walks the route src -> dst hop by
/// hop (recursing to the route's parent processor first), fitting each
/// link without reserving it.
inline Time probe_arrival(const NetSchedule& ns, int src, int dst, Cost size,
                          Time depart) {
  if (src == dst || size <= 0) return depart;
  const RoutingTable::SweepStep& st = ns.routes().tree_edge(src, dst);
  const Time ready = probe_arrival(ns, src, st.parent, size, depart);
  return ns.link_timeline(st.link).earliest_fit(ready, size,
                                                /*insertion=*/true) +
         size;
}

/// Earliest start time of ready node `n` (all parents placed) on processor
/// `p`: one route probe per parent, without committing messages.
inline Time apn_probe_est(const NetSchedule& ns, NodeId n, int p,
                          bool insertion) {
  const TaskGraph& g = ns.graph();
  const Schedule& s = ns.tasks();
  Time ready = 0;
  for (const Adj& par : g.parents(n)) {
    const Time ft = s.finish(par.node);
    const int q = s.proc(par.node);
    const Time arrival =
        q == p ? ft : probe_arrival(ns, q, p, par.cost, ft);
    ready = std::max(ready, arrival);
  }
  return s.earliest_start_on(p, ready, g.weight(n), insertion);
}

}  // namespace tgs::reference
