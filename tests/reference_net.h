// Per-destination APN probes: the route walks the one-to-all routing-tree
// sweeps (NetSchedule::probe_arrival_all, apn_probe_est_all) replaced.
// They are the ground truth the sweep property tests (test_net.cpp,
// test_apn.cpp) compare against and the baseline of the naive DLS(APN)
// reference and the tgs_perf probe benchmarks. Also here: message commit
// and lookup by edge endpoints, which the library (whose callers walk
// parent slots) does not need.
//
// Deliberately straight-line -- do not "optimize" them; their simplicity
// is the point.
#pragma once

#include <algorithm>
#include <stdexcept>

#include "tgs/net/net_schedule.h"

namespace tgs::reference {

/// Index of u in parents(v) (sorted by id), or parents(v).size() when
/// (u, v) is not an edge.
inline std::size_t parent_index(const TaskGraph& g, NodeId u, NodeId v) {
  const std::span<const Adj> pars = g.parents(v);
  const auto it = std::lower_bound(
      pars.begin(), pars.end(), u,
      [](const Adj& a, NodeId id) { return a.node < id; });
  return it != pars.end() && it->node == u
             ? static_cast<std::size_t>(it - pars.begin())
             : pars.size();
}

/// NetSchedule::commit_parent_message for edge (u, v); throws
/// std::logic_error if (u, v) is not an edge.
inline Time commit_message(NetSchedule& ns, NodeId u, NodeId v,
                           int dst_proc) {
  const std::size_t i = parent_index(ns.graph(), u, v);
  if (i == ns.graph().num_parents(v)) throw std::logic_error("no such edge");
  return ns.commit_parent_message(v, i, dst_proc);
}

/// The committed message of edge (u, v), or nullptr.
inline const Message* find_message(const NetSchedule& ns, NodeId u,
                                   NodeId v) {
  const std::size_t i = parent_index(ns.graph(), u, v);
  if (i == ns.graph().num_parents(v)) return nullptr;
  return ns.find_message(ns.graph().parent_slot(v, i));
}

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
