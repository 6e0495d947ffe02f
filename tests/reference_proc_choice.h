// The exhaustive processor choice that bnp/bnp_common.h's best_est_proc
// replaced: probe every processor of the scan window and keep the
// smallest (start, id). Its arrival summary is the pre-pruning one too --
// the two largest comm-paid arrivals plus per-processor local finish
// maxima -- so it does not lean on the non-negative-cost argument that
// lets ArrivalInfo drop the local maxima. The frozen reference schedulers
// and the differential tests of best_est_proc use it as ground truth.
//
// Deliberately a straight-line copy of the retired code -- do not
// "optimize" it; its independence from the code under test is the point.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "tgs/bnp/bnp_common.h"
#include "tgs/sched/schedule.h"

namespace tgs::reference {

/// Arrival summary of a ready node (all parents placed).
struct Arrival {
  Time max1 = 0;           // largest FT(parent) + c over all parents
  ProcId proc1 = kNoProc;  // processor of that parent
  Time max2 = 0;           // largest FT + c over parents NOT on proc1
  // Per-processor max FT(parent) for parents on that processor, sorted.
  std::vector<std::pair<ProcId, Time>> local_ft;

  /// Data-ready time of the node on processor p.
  Time ready_on(ProcId p) const {
    Time ready = (p == proc1) ? max2 : max1;
    auto it = std::lower_bound(
        local_ft.begin(), local_ft.end(), p,
        [](const std::pair<ProcId, Time>& e, ProcId q) { return e.first < q; });
    if (it != local_ft.end() && it->first == p)
      ready = std::max(ready, it->second);
    return ready;
  }
};

/// Build the arrival summary for `n` from the placed parents in `s`,
/// reusing `info`'s local_ft capacity.
inline void arrival_into(const Schedule& s, NodeId n, Arrival& info) {
  const TaskGraph& g = s.graph();
  info.max1 = 0;
  info.proc1 = kNoProc;
  info.max2 = 0;
  info.local_ft.clear();
  for (const Adj& par : g.parents(n)) {
    const ProcId q = s.proc(par.node);
    const Time ft = s.finish(par.node);
    const Time with_comm = ft + par.cost;
    if (with_comm > info.max1) {
      info.max1 = with_comm;
      info.proc1 = q;
    }
    auto it = std::lower_bound(
        info.local_ft.begin(), info.local_ft.end(), q,
        [](const std::pair<ProcId, Time>& e, ProcId pid) { return e.first < pid; });
    if (it != info.local_ft.end() && it->first == q) {
      it->second = std::max(it->second, ft);
    } else {
      info.local_ft.insert(it, {q, ft});
    }
  }
  for (const Adj& par : g.parents(n)) {
    if (s.proc(par.node) == info.proc1) continue;
    info.max2 = std::max(info.max2, s.finish(par.node) + par.cost);
  }
}

/// Probe processors [0, count) for node `n` with arrival `arr` and return
/// the one minimizing the earliest start (ties: smaller processor id).
inline ProcChoice best_est_proc_scan(const Schedule& s, NodeId n, int count,
                                     bool insertion, const Arrival& arr) {
  const Cost dur = s.graph().weight(n);
  ProcChoice best{0, kTimeInf};
  for (ProcId p = 0; p < count; ++p) {
    const Time t = s.earliest_start_on(p, arr.ready_on(p), dur, insertion);
    if (t < best.start) best = {p, t};
  }
  return best;
}

/// The scan over the scanner's window, with the arrival computed into
/// `scratch` -- the retired best_est_proc call shape.
inline ProcChoice best_est_proc_scan(const Schedule& s, NodeId n,
                                     const ProcScanner& scanner,
                                     bool insertion, Arrival& scratch) {
  arrival_into(s, n, scratch);
  return best_est_proc_scan(s, n, scanner.scan_count(), insertion, scratch);
}

}  // namespace tgs::reference
