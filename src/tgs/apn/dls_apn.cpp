#include "tgs/apn/dls_apn.h"

#include "tgs/bnp/bnp_common.h"
#include "tgs/list/ready_list.h"

namespace tgs {

// Incremental pair selection under link contention. Unlike the BNP case,
// committing a node routes messages over shared links, so a placement can
// delay a cached EST on ANY processor -- exact invalidation is impossible
// without re-probing. What does hold is monotonicity: link and processor
// reservations only ever grow during this algorithm (nothing is released),
// and occupying a timeline never makes earliest_fit earlier. A cached EST
// is therefore a lower bound on the current EST, i.e. a cached dynamic
// level DL = SL - EST is an upper bound.
//
// That licenses lazy confirmation: pick the argmax over cached DLs, then
// re-probe just that node. If its value is unchanged it beats every other
// node's upper bound, so it is the true argmax (the comparator is a strict
// total order -- node id breaks ties -- and rivals can only have gotten
// worse); otherwise update the cache and re-pick. Each ready node is
// probed at most once per step, against the naive O(ready x procs) probes
// per step, and the selected (node, processor, start) sequence is
// byte-identical to the exhaustive scan.
NetSchedule DlsApnScheduler::do_run(const TaskGraph& g,
                                    const RoutingTable& routes,
                                    SchedWorkspace& ws) const {
  const std::vector<Time>& sl = ws.attrs().static_levels();
  NetSchedule ns(g, routes);
  const int nprocs = routes.topology().num_procs();
  ReadyList ready(g);

  PairScratch& scratch = ws.pair_scratch();
  scratch.bind(g.num_nodes());

  // stamp[m] records how many nodes had been committed when m's cached
  // (proc, EST) was last probed: the cache is exact iff stamp[m] equals
  // the current commit count. Every ready node is stamped at admission,
  // so stale values from earlier runs are never consulted.
  std::uint64_t commits = 0;
  ApnSweepScratch& sweep = ws.apn_scratch();
  const auto rescore = [&](NodeId m) {
    // One one-to-all sweep scores every processor (bit-identical to a
    // per-processor route-probe loop; strict < keeps smallest-id ties).
    apn_probe_est_all(ns, m, /*insertion=*/false, sweep);
    ProcChoice pc{0, kTimeInf};
    for (int p = 0; p < nprocs; ++p) {
      if (sweep.est[p] < pc.start) pc = {static_cast<ProcId>(p), sweep.est[p]};
    }
    scratch.best[m] = pc;
    scratch.stamp[m] = commits;
  };
  for (NodeId n : ready.ready()) rescore(n);

  while (!ready.empty()) {
    ws.deadline().poll();
    NodeId best_n;
    while (true) {
      best_n = kNoNode;
      Time best_dl = 0;
      Time best_est = 0;
      for (NodeId m : ready.ready()) {
        const Time est = scratch.best[m].start;
        const Time dl = sl[m] - est;
        const bool better =
            best_n == kNoNode || dl > best_dl ||
            (dl == best_dl &&
             (est < best_est || (est == best_est && m < best_n)));
        if (better) {
          best_n = m;
          best_dl = dl;
          best_est = est;
        }
      }
      if (scratch.stamp[best_n] == commits) break;  // cache already exact
      const Time cached = scratch.best[best_n].start;
      rescore(best_n);
      if (scratch.best[best_n].start == cached) break;
    }
    apn_commit_node(ns, best_n, scratch.best[best_n].proc,
                    /*insertion=*/false);
    ++commits;
    ready.mark_scheduled(best_n);
    for (const Adj& c : g.children(best_n))
      if (ready.is_ready(c.node)) rescore(c.node);
  }
  return ns;
}

}  // namespace tgs
