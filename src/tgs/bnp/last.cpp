// LAST -- Localized Allocation of Static Tasks (Baxter & Patel, 1989; paper
// ref [7]).
//
// Classification: BNP, dynamic list, non-CP-based, non-greedy (it minimizes
// communication, not start time), non-insertion. Node priority is D_NODE:
// the fraction of a node's incident edge weight that connects to
// already-scheduled neighbours,
//     D_NODE(n) = sum_{(m,n) or (n,m), m scheduled} c / sum_{all incident} c,
// so the algorithm grows the schedule outward from the already-placed
// region, trying to localize heavy edges onto one processor. Ties fall back
// to static level. The chosen node goes to the processor minimizing its
// start time. The paper finds LAST the weakest BNP algorithm -- its
// communication-centric priority ignores the critical path entirely -- and
// we reproduce that behaviour.
#include "tgs/bnp/bnp_common.h"

#include <vector>

#include "tgs/graph/attributes.h"
#include "tgs/list/ready_list.h"

namespace tgs {

Schedule last_schedule(const TaskGraph& g, const SchedOptions& opt,
                       SchedWorkspace& ws) {
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
  ProcScanner scanner(sched, effective_procs(g, opt), ws.pair_scratch());
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
      if (lhs > rhs ||
          (lhs == rhs && (sl[m] > sl[best] || (sl[m] == sl[best] && m < best))))
        best = m;
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
