// Turning a cluster assignment into a concrete schedule.
//
// Given a fixed node -> cluster (processor) assignment, tasks are ordered
// by descending b-level (a valid topological order, since b-level strictly
// decreases along every edge) and each starts at
//   max(processor available time, data-ready time)
// with communication zeroed inside a cluster. This is the evaluation that
// EZ's edge-zeroing pass replays per tentative merge (unc/ez.cpp), the
// final materialization for LC, and the execution-ordering step of the
// UNC+CS mapping extension.
#pragma once

#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/sched/schedule.h"
#include "tgs/util/types.h"

namespace tgs {

/// List-schedule `g` with the fixed `assign`ment (one entry per node).
/// `insertion` enables idle-slot insertion (off by default: clusters are
/// sequential task chains in the UNC model).
Schedule schedule_with_assignment(const TaskGraph& g,
                                  const std::vector<ProcId>& assign,
                                  bool insertion = false);

/// Same, but only returns the makespan (no Schedule object).
Time assignment_makespan(const TaskGraph& g, const std::vector<ProcId>& assign);

/// Hot-loop variant with a precomputed traversal order and caller-owned
/// scratch buffers (the cluster-mapping search calls it once per move).
Time assignment_makespan(const TaskGraph& g, const std::vector<ProcId>& assign,
                         const std::vector<NodeId>& order,
                         std::vector<Time>& start_scratch,
                         std::vector<Time>& avail_scratch);

/// Deterministic order used by both functions, EZ and the APN builders:
/// descending b-level, ties by node id.
std::vector<NodeId> blevel_order(const TaskGraph& g);

}  // namespace tgs
