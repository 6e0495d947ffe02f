#include "tgs/optimal/lower_bounds.h"

#include <algorithm>

#include "tgs/graph/attributes.h"

namespace tgs {

LowerBounds::LowerBounds(const TaskGraph& g, int num_procs)
    : graph_(&g), num_procs_(num_procs), sl_nc_(static_levels(g)) {
  est_.resize(g.num_nodes());
}

Time LowerBounds::evaluate(const Schedule& s,
                           std::vector<Time>& est_scratch) const {
  const TaskGraph& g = *graph_;
  std::vector<Time>& est = est_scratch;
  est.resize(g.num_nodes());

  // Critical-path bound with pinned placements.
  Time cp_bound = 0;
  for (NodeId u : g.topological_order()) {
    if (s.is_placed(u)) {
      est[u] = s.start(u);
    } else {
      Time t = 0;
      for (const Adj& par : g.parents(u)) {
        const Time avail = s.is_placed(par.node)
                               ? s.finish(par.node)
                               : est[par.node] + g.weight(par.node);
        t = std::max(t, avail);  // comm optimistically zero
      }
      est[u] = t;
    }
    cp_bound = std::max(cp_bound, est[u] + sl_nc_[u]);
  }

  // Load bound.
  Time finish_sum = 0;
  Time gap_total = 0;
  for (int p = 0; p < s.num_procs(); ++p) {
    const Time fin = s.timeline(p).end_time();
    finish_sum += fin;
    gap_total += fin - s.timeline(p).busy_time();
  }
  Cost remaining = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    if (!s.is_placed(u)) remaining += g.weight(u);
  const Time effective = finish_sum + std::max<Time>(0, remaining - gap_total);
  const Time load_bound =
      (effective + num_procs_ - 1) / static_cast<Time>(num_procs_);

  return std::max({cp_bound, load_bound, s.makespan()});
}

}  // namespace tgs
