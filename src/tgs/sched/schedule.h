// Schedule: an assignment of every task to (processor, start time).
//
// The machine model is the paper's §2: homogeneous processors, task
// execution is non-preemptive, a processor runs one task at a time. The
// fully-connected contention-free communication model (BNP/UNC classes)
// needs nothing beyond this; the APN class adds link timelines on top (see
// net/net_schedule.h).
#pragma once

#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/sched/timeline.h"
#include "tgs/util/types.h"

namespace tgs {

class Schedule {
 public:
  /// `num_procs_hint` pre-allocates timelines; the schedule grows on demand
  /// when tasks are placed on higher-numbered processors.
  explicit Schedule(const TaskGraph& g, int num_procs_hint = 0);

  const TaskGraph& graph() const { return *graph_; }

  /// Place task n on processor p at `start`; throws on double placement or
  /// processor-time overlap.
  void place(NodeId n, ProcId p, Time start);

  /// Remove a placed task (used by migrating / backtracking algorithms).
  void unplace(NodeId n);

  /// Unplace every task. The timelines stay allocated (num_procs() does
  /// not shrink) and keep their capacity for the next round of place().
  void reset();

  bool is_placed(NodeId n) const { return proc_[n] != kNoProc; }
  ProcId proc(NodeId n) const { return proc_[n]; }
  Time start(NodeId n) const { return start_[n]; }
  Time finish(NodeId n) const { return start_[n] + graph_->weight(n); }

  /// Number of processor timelines allocated (>= highest placed proc + 1).
  int num_procs() const { return static_cast<int>(timelines_.size()); }

  /// Processors actually holding at least one task.
  int procs_used() const;

  /// Max finish time over placed tasks (0 when nothing is placed).
  Time makespan() const;

  /// Earliest feasible start of a `dur` block on p at/after `ready`.
  Time earliest_start_on(ProcId p, Time ready, Cost dur, bool insertion) const;

  /// Busy intervals of processor p, sorted by start (owner = NodeId).
  const Timeline& timeline(ProcId p) const { return timelines_[p]; }

  std::size_t placed_count() const { return placed_count_; }

  /// Data-ready time of task n on processor p under the fully-connected
  /// model: max over placed parents of FT(parent) + (same-proc ? 0 : c).
  /// Unplaced parents are ignored (callers schedule in precedence order).
  Time data_ready(NodeId n, ProcId p) const;

  /// Convenience: earliest start of task n on p = fit(data_ready, w(n)).
  Time est(NodeId n, ProcId p, bool insertion) const;

 private:
  void ensure_proc(ProcId p);

  const TaskGraph* graph_;
  std::vector<Timeline> timelines_;
  std::vector<ProcId> proc_;
  std::vector<Time> start_;
  std::size_t placed_count_ = 0;
};

}  // namespace tgs
