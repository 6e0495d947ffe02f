#include "tgs/unc/cluster_schedule.h"

#include <algorithm>
#include <numeric>

#include "tgs/graph/attributes.h"

namespace tgs {

std::vector<NodeId> blevel_order(const TaskGraph& g) {
  const std::vector<Time> b = b_levels(g);
  std::vector<NodeId> order(b.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId x, NodeId y) { return b[x] > b[y]; });
  return order;
}

Schedule schedule_with_assignment(const TaskGraph& g,
                                  const std::vector<ProcId>& assign) {
  Schedule sched(g);
  for (NodeId n : blevel_order(g)) {
    const ProcId p = assign[n];
    const Time ready = sched.data_ready(n, p);
    const Time start =
        sched.earliest_start_on(p, ready, g.weight(n), /*insertion=*/false);
    sched.place(n, p, start);
  }
  return sched;
}

Time assignment_makespan(const TaskGraph& g, const std::vector<ProcId>& assign,
                         const std::vector<NodeId>& order,
                         std::vector<Time>& start_scratch,
                         std::vector<Time>& avail_scratch) {
  // Append-only traversal in the given topological order; per-processor
  // available time suffices, no Timeline objects needed. Scratch buffers
  // avoid reallocation in hot loops.
  ProcId max_proc = 0;
  for (ProcId p : assign) max_proc = std::max(max_proc, p);
  avail_scratch.assign(static_cast<std::size_t>(max_proc) + 1, 0);
  start_scratch.assign(g.num_nodes(), 0);
  Time makespan = 0;

  for (NodeId n : order) {
    const ProcId p = assign[n];
    Time ready = 0;
    for (const Adj& par : g.parents(n)) {
      const Time ft = start_scratch[par.node] + g.weight(par.node);
      ready = std::max(ready, assign[par.node] == p ? ft : ft + par.cost);
    }
    const Time st = std::max(ready, avail_scratch[p]);
    start_scratch[n] = st;
    avail_scratch[p] = st + g.weight(n);
    makespan = std::max(makespan, avail_scratch[p]);
  }
  return makespan;
}

void pinned_t_levels(const TaskGraph& g, const Schedule& s,
                     std::vector<Time>& t) {
  t.assign(g.num_nodes(), 0);
  for (NodeId u : g.topological_order()) {
    if (s.is_placed(u)) {
      t[u] = s.start(u);
      continue;
    }
    Time best = 0;
    for (const Adj& par : g.parents(u))
      best = std::max(best, t[par.node] + g.weight(par.node) + par.cost);
    t[u] = best;
  }
}

}  // namespace tgs
