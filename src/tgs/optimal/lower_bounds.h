// Lower bounds for the branch-and-bound optimal scheduler.
//
// Both bounds are valid for the fully-connected contention-free machine
// with p processors and task placement by insertion:
//
//  * Critical-path bound: communication can at best be zeroed, so for any
//    (partially scheduled) state, every task u must still be followed by
//    its comm-free static level sl_nc(u); placed tasks are pinned at their
//    start times, unscheduled ones at an optimistic comm-free earliest
//    start.
//  * Load bound: every unit of unscheduled work either fills an existing
//    idle gap or extends some processor's finish time, so
//    sum(final finishes) >= sum(current finishes)
//                           + max(0, remaining work - current idle gaps),
//    and the makespan is at least that sum divided by p.
#pragma once

#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/sched/schedule.h"

namespace tgs {

/// Reusable scratch + precomputation for bound evaluation on one graph.
class LowerBounds {
 public:
  explicit LowerBounds(const TaskGraph& g, int num_procs);

  /// Lower bound on the completion of any extension of `s`. `est_scratch`
  /// is caller-owned working memory (resized on demand): concurrent
  /// evaluations are safe as long as each thread passes its own buffer.
  Time evaluate(const Schedule& s, std::vector<Time>& est_scratch) const;

  /// Single-threaded convenience overload using a member scratch buffer.
  Time evaluate(const Schedule& s) const { return evaluate(s, est_); }

  const std::vector<Time>& static_levels_nocomm() const { return sl_nc_; }

 private:
  const TaskGraph* graph_;
  int num_procs_;
  std::vector<Time> sl_nc_;
  mutable std::vector<Time> est_;  // scratch
};

}  // namespace tgs
