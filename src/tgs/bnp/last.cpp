#include "tgs/bnp/last.h"

#include <vector>

#include "tgs/bnp/bnp_common.h"
#include "tgs/graph/attributes.h"
#include "tgs/list/ready_list.h"

namespace tgs {

Schedule LastScheduler::do_run(const TaskGraph& g, const SchedOptions& opt,
                               SchedWorkspace& ws) const {
  const std::vector<Time>& sl = ws.attrs().static_levels();

  // Total incident edge weight per node (denominator of D_NODE).
  std::vector<Cost> incident(g.num_nodes(), 0);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (const Adj& c : g.children(n)) incident[n] += c.cost;
    for (const Adj& p : g.parents(n)) incident[n] += p.cost;
  }
  // Incident weight to already-scheduled neighbours (numerator), updated as
  // nodes are placed.
  std::vector<Cost> to_scheduled(g.num_nodes(), 0);

  Schedule sched(g, effective_procs(g, opt));
  ProcScanner scanner(sched, effective_procs(g, opt),
                      ws.pair_scratch().proc_ends);
  ReadyList ready(g);

  while (!ready.empty()) {
    // Highest D_NODE = to_scheduled / incident, compared exactly via cross
    // multiplication; ties -> higher static level, then smaller id.
    NodeId best = kNoNode;
    for (NodeId m : ready.ready()) {
      if (best == kNoNode) {
        best = m;
        continue;
      }
      const Cost lhs = to_scheduled[m] * (incident[best] == 0 ? 1 : incident[best]);
      const Cost rhs = to_scheduled[best] * (incident[m] == 0 ? 1 : incident[m]);
      if (lhs > rhs || (lhs == rhs && sl[m] > sl[best])) best = m;
    }

    const ProcChoice choice = best_est_proc(
        scanner, best, arrival_of(sched, best), /*insertion=*/false);
    sched.place(best, choice.proc, choice.start);
    scanner.note_placement(choice.proc);
    ready.mark_scheduled(best);
    for (const Adj& c : g.children(best)) to_scheduled[c.node] += c.cost;
    for (const Adj& p : g.parents(best)) to_scheduled[p.node] += p.cost;
  }
  return sched;
}

}  // namespace tgs
