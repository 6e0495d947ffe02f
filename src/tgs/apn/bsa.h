// BSA -- Bubble Scheduling and Allocation (Kwok & Ahmad; paper ref [2]).
//
// Classification: APN, incremental migration. The whole graph is first
// serially injected onto a single pivot processor (the one with the most
// links) in descending b-level order. Processors are then visited in
// breadth-first order from the pivot; each task on the current pivot tries
// to "bubble" to an adjacent processor when doing so strictly reduces its
// start time, with messages re-routed on the links. A migration that would
// lengthen the overall schedule is rolled back. The paper credits BSA's
// strength on large graphs to "an efficient scheduling of communication
// messages", which the explicit link re-routing reproduces.
//
// Implementation note: every tentative migration rebuilds the whole
// NetSchedule from the updated assignment and keeps it iff the makespan
// does not grow. The run holds two schedules: the current one and a spare
// that each rebuild resets and fills (apn_build_into, over a b-level order
// computed once per run). An accepted rebuild is swapped in and the old
// schedule becomes the spare; a rejected one stays the spare. Reset keeps
// every timeline's chunk buffers and every message array, so after the
// first few rebuilds a migration allocates nothing. An exact incremental
// engine that released and recommitted only the affected region was
// measured 2.7-3.5x slower than rebuilding and deleted: a migration off
// BSA's packed pivot shifts 70-80% of the schedule, so an in-place update
// touches most of it twice (docs/perf.md, "BSA" and the ledger).
#pragma once

#include "tgs/apn/apn_common.h"

namespace tgs {

class BsaScheduler final : public ApnScheduler {
 public:
  std::string name() const override { return "BSA"; }

 protected:
  NetSchedule do_run(const TaskGraph& g, const RoutingTable& routes,
                     SchedWorkspace& ws) const override;
};

}  // namespace tgs
