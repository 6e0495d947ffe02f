// Naive reference implementations of the pair-selection schedulers: the
// textbook O(steps x ready x procs) loops that ETF, DLS and DLS(APN) used
// before the pair selectors (bnp/bnp_common.h). They are the ground truth
// the property tests (test_pair_selector.cpp) and the before/after
// benchmarks (bench/perf/) compare against: the production schedulers
// must reproduce these schedules byte-for-byte.
//
// Deliberately kept as straight-line copies of the retired loops -- do not
// "optimize" them; their simplicity is the point.
#pragma once

#include <vector>

#include "reference_net.h"
#include "reference_proc_choice.h"
#include "tgs/apn/apn_common.h"
#include "tgs/net/topology.h"
#include "tgs/bnp/bnp_common.h"
#include "tgs/graph/attributes.h"
#include "tgs/list/ready_list.h"
#include "tgs/net/net_schedule.h"
#include "tgs/sched/schedule.h"
#include "tgs/sched/scheduler.h"

namespace tgs::reference {

/// ETF selection: globally earliest (ready node, processor) start; ties ->
/// higher static level, then smaller node id; per node smaller processor.
inline Schedule naive_etf(const TaskGraph& g, const SchedOptions& opt,
                          bool insertion = false) {
  const std::vector<Time> sl = static_levels(g);
  Schedule sched(g, effective_procs(g, opt));
  PairScratch pair;
  ProcScanner scanner(sched, effective_procs(g, opt), pair);
  ReadyList ready(g);

  while (!ready.empty()) {
    NodeId best_n = kNoNode;
    ProcId best_p = 0;
    Time best_t = kTimeInf;
    const int nprocs = scanner.scan_count();
    for (NodeId m : ready.ready()) {
      Arrival arr;
      arrival_into(sched, m, arr);
      for (ProcId p = 0; p < nprocs; ++p) {
        const Time t =
            sched.earliest_start_on(p, arr.ready_on(p), g.weight(m), insertion);
        const bool better =
            t < best_t ||
            (t == best_t && best_n != kNoNode &&
             (sl[m] > sl[best_n] || (sl[m] == sl[best_n] && m < best_n)));
        if (best_n == kNoNode || better) {
          best_n = m;
          best_p = p;
          best_t = t;
        }
      }
    }
    sched.place(best_n, best_p, best_t);
    scanner.note_placement(best_p);
    ready.mark_scheduled(best_n);
  }
  return sched;
}

/// DLS selection: maximize DL(n, p) = SL(n) - EST(n, p); ties -> earlier
/// start, then smaller node id; per node smaller processor.
inline Schedule naive_dls(const TaskGraph& g, const SchedOptions& opt,
                          bool insertion = false) {
  const std::vector<Time> sl = static_levels(g);
  Schedule sched(g, effective_procs(g, opt));
  PairScratch pair;
  ProcScanner scanner(sched, effective_procs(g, opt), pair);
  ReadyList ready(g);

  while (!ready.empty()) {
    NodeId best_n = kNoNode;
    ProcId best_p = 0;
    Time best_start = 0;
    Time best_dl = 0;
    const int nprocs = scanner.scan_count();
    for (NodeId m : ready.ready()) {
      Arrival arr;
      arrival_into(sched, m, arr);
      for (ProcId p = 0; p < nprocs; ++p) {
        const Time est =
            sched.earliest_start_on(p, arr.ready_on(p), g.weight(m), insertion);
        const Time dl = sl[m] - est;
        const bool better =
            best_n == kNoNode || dl > best_dl ||
            (dl == best_dl &&
             (est < best_start ||
              (est == best_start && (m < best_n || (m == best_n && p < best_p)))));
        if (better) {
          best_n = m;
          best_p = p;
          best_start = est;
          best_dl = dl;
        }
      }
    }
    sched.place(best_n, best_p, best_start);
    scanner.note_placement(best_p);
    ready.mark_scheduled(best_n);
  }
  return sched;
}

/// DLS(APN): every (ready node, processor) pair probed against the
/// current link state at every step.
inline NetSchedule naive_dls_apn(const TaskGraph& g,
                                 const RoutingTable& routes) {
  const std::vector<Time> sl = static_levels(g);
  NetSchedule ns(g, routes);
  const int nprocs = routes.topology().num_procs();
  ReadyList ready(g);

  while (!ready.empty()) {
    NodeId best_n = kNoNode;
    int best_p = 0;
    Time best_dl = 0;
    Time best_est = 0;
    for (NodeId m : ready.ready()) {
      for (int p = 0; p < nprocs; ++p) {
        const Time est = apn_probe_est(ns, m, p, /*insertion=*/false);
        const Time dl = sl[m] - est;
        const bool better =
            best_n == kNoNode || dl > best_dl ||
            (dl == best_dl &&
             (est < best_est || (est == best_est && m < best_n)));
        if (better) {
          best_n = m;
          best_p = p;
          best_dl = dl;
          best_est = est;
        }
      }
    }
    apn_commit_node(ns, best_n, best_p, /*insertion=*/false);
    ready.mark_scheduled(best_n);
  }
  return ns;
}

}  // namespace tgs::reference
