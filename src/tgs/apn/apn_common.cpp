#include "tgs/apn/apn_common.h"

#include <algorithm>
#include <stdexcept>

#include "tgs/unc/cluster_schedule.h"

namespace tgs {

NetSchedule ApnScheduler::run(const TaskGraph& g,
                              const RoutingTable& routes) const {
  SchedWorkspace ws;
  ws.begin_graph(g);
  return body_(g, routes, ws);
}

NetSchedule ApnScheduler::run(const TaskGraph& g, const RoutingTable& routes,
                              SchedWorkspace& ws) const {
  if (ws.graph() != &g)
    throw std::logic_error(
        "SchedWorkspace not bound to this graph; call begin_graph() first");
  return body_(g, routes, ws);
}

void apn_probe_ready_all(const NetSchedule& ns, NodeId n,
                         ApnSweepScratch& scratch) {
  const TaskGraph& g = ns.graph();
  const Schedule& s = ns.tasks();
  const std::size_t nprocs =
      static_cast<std::size_t>(ns.topology().num_procs());
  scratch.arrival.resize(nprocs);
  scratch.ready.assign(nprocs, 0);
  for (const Adj& par : g.parents(n)) {
    const Time ft = s.finish(par.node);
    ns.probe_arrival_all(s.proc(par.node), par.cost, ft, scratch.arrival);
    for (std::size_t p = 0; p < nprocs; ++p)
      scratch.ready[p] = std::max(scratch.ready[p], scratch.arrival[p]);
  }
}

void apn_probe_est_all(const NetSchedule& ns, NodeId n, bool insertion,
                       ApnSweepScratch& scratch) {
  apn_probe_ready_all(ns, n, scratch);
  const Schedule& s = ns.tasks();
  const std::size_t nprocs =
      static_cast<std::size_t>(ns.topology().num_procs());
  scratch.est.resize(nprocs);
  for (std::size_t p = 0; p < nprocs; ++p)
    scratch.est[p] = s.earliest_start_on(static_cast<ProcId>(p),
                                         scratch.ready[p],
                                         ns.graph().weight(n), insertion);
}

Time apn_commit_node(NetSchedule& ns, NodeId n, int p, bool insertion) {
  const TaskGraph& g = ns.graph();
  Schedule& s = ns.tasks();
  Time ready = 0;
  const std::span<const Adj> pars = g.parents(n);
  for (std::size_t i = 0; i < pars.size(); ++i) {
    const NodeId u = pars[i].node;
    const Time arrival = s.proc(u) == p ? s.finish(u)
                                        : ns.commit_parent_message(n, i, p);
    ready = std::max(ready, arrival);
  }
  const Time start = s.earliest_start_on(p, ready, g.weight(n), insertion);
  s.place(n, p, start);
  return start;
}

void apn_build_into(NetSchedule& ns, const std::vector<NodeId>& order,
                    const std::vector<ProcId>& assign, bool insertion) {
  ns.reset();
  for (NodeId n : order) apn_commit_node(ns, n, assign[n], insertion);
}

NetSchedule apn_build_with_assignment(const TaskGraph& g,
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
