// DCP -- Dynamic Critical Path scheduling (Kwok & Ahmad, 1996; paper ref
// [22]).
//
// Classification: UNC, CP-based, dynamic list, lookahead (non-greedy).
// After every placement the absolute earliest start time (AEST) and
// absolute latest start time (ALST) of each node are recomputed on the
// partially scheduled graph; nodes with AEST == ALST form the dynamic
// critical path. The node with minimum slack (ALST - AEST) is selected
// (ties: smaller ALST). Candidate processors are those holding the node's
// placed parents/children plus one fresh processor; the winner minimizes
// the composite objective
//     start(n, p) + lookahead-start(critical child of n, p)
// with insertion. On ties the earliest candidate in order (parents'
// processors first, fresh last) wins, reproducing DCP's "do not open a new
// processor unless the schedule length requires it" strategy that the
// paper highlights in §6.4.2. Complexity O(v^3) in this dynamic form; the
// paper finds DCP the strongest UNC algorithm, at the price of the largest
// running time in its class.
#include "tgs/unc/clustering.h"

#include <algorithm>

#include "tgs/graph/attributes.h"
#include "tgs/list/ready_list.h"
#include "tgs/unc/cluster_schedule.h"

namespace tgs {

Schedule dcp_schedule(const TaskGraph& g, const SchedOptions& opt,
                      SchedWorkspace& ws) {
  const int limit = effective_procs(g, opt);
  Schedule sched(g, limit);
  ReadyList ready(g);
  int used = 0;

  // The comm-inclusive b-level is invariant under our pinning scheme.
  const std::vector<Time>& bl = ws.attrs().b_levels();
  std::vector<Time> aest;

  while (!ready.empty()) {
    pinned_t_levels(g, sched, aest);
    Time cpl = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      cpl = std::max(cpl, aest[u] + bl[u]);

    // ALST(u) = cpl - bl(u); slack = ALST - AEST.
    // Select the ready node with minimum slack, ties by smaller ALST,
    // then smaller id.
    NodeId n = kNoNode;
    Time n_slack = 0, n_alst = 0;
    for (NodeId m : ready.ready()) {
      const Time alst = cpl - bl[m];
      const Time slack = alst - aest[m];
      if (n == kNoNode || slack < n_slack ||
          (slack == n_slack && (alst < n_alst || (alst == n_alst && m < n)))) {
        n = m;
        n_slack = slack;
        n_alst = alst;
      }
    }

    // Candidate processors: placed parents' and children's processors
    // first (ascending), then the remaining in-use processors, then one
    // fresh processor. The ordering matters only for tie-breaks, where it
    // implements DCP's preference for processors already holding related
    // nodes.
    std::vector<ProcId> cand;
    auto add_cand = [&cand](ProcId p) {
      if (std::find(cand.begin(), cand.end(), p) == cand.end())
        cand.push_back(p);
    };
    {
      std::vector<ProcId> related;
      for (const Adj& par : g.parents(n))
        if (sched.is_placed(par.node)) related.push_back(sched.proc(par.node));
      for (const Adj& c : g.children(n))
        if (sched.is_placed(c.node)) related.push_back(sched.proc(c.node));
      std::sort(related.begin(), related.end());
      for (ProcId p : related) add_cand(p);
    }
    for (ProcId p = 0; p < static_cast<ProcId>(used); ++p) add_cand(p);
    if (used < limit) add_cand(static_cast<ProcId>(used));
    if (cand.empty()) add_cand(0);

    // Critical child: unplaced child with minimum slack (ties smaller id),
    // used for the one-step lookahead.
    NodeId cc = kNoNode;
    Time cc_slack = 0;
    for (const Adj& c : g.children(n)) {
      if (sched.is_placed(c.node)) continue;
      const Time slack = (cpl - bl[c.node]) - aest[c.node];
      if (cc == kNoNode || slack < cc_slack) {
        cc = c.node;
        cc_slack = slack;
      }
    }

    ProcId best_p = cand.front();
    Time best_start = 0;
    Time best_obj = kTimeInf;
    for (ProcId p : cand) {
      const Time st = sched.est(n, p, /*insertion=*/true);
      Time obj = st;
      if (cc != kNoNode) {
        // Estimate the critical child's start if it also landed on p.
        Time cc_ready = st + g.weight(n);  // from n, co-located
        for (const Adj& par : g.parents(cc)) {
          if (par.node == n) continue;
          if (sched.is_placed(par.node)) {
            const Time ft = sched.finish(par.node);
            cc_ready = std::max(cc_ready,
                                sched.proc(par.node) == p ? ft : ft + par.cost);
          } else {
            cc_ready =
                std::max(cc_ready, aest[par.node] + g.weight(par.node) + par.cost);
          }
        }
        // Insertion-aware: the child competes for idle slots on p's current
        // timeline (cc_ready >= st + w(n) keeps it clear of n itself).
        const Time cc_start =
            sched.earliest_start_on(p, cc_ready, g.weight(cc), /*insertion=*/true);
        obj = st + cc_start;
      }
      if (obj < best_obj) {  // ties keep the earliest candidate (parents first)
        best_obj = obj;
        best_p = p;
        best_start = st;
      }
    }

    sched.place(n, best_p, best_start);
    used = std::max(used, static_cast<int>(best_p) + 1);
    ready.mark_scheduled(n);
  }
  return sched;
}

}  // namespace tgs
