// Cluster scheduling (CS): mapping UNC clusters onto a bounded number of
// physical processors.
//
// Paper §7: "In UNC algorithms, clusters obtained through scheduling are
// assigned to a bounded number of processors. ... Two such algorithms
// called Sarkar's assignment algorithm and Yang's RCP algorithm" — Sarkar
// merges clusters while considering the execution order (it re-evaluates
// the ordered schedule after every tentative merge); RCP merges purely by
// load, which is cheaper but can make poor choices. The paper leaves
// "BNP vs UNC+CS" as future work; `tgs_bench --experiment=ext_unc_cs`
// (bench/experiments/exp_rgnos.cpp) runs that comparison.
//
// Both functions take the cluster labels of a UNC schedule (cluster id per
// node) and produce a complete schedule on `num_procs` processors; nodes of
// one cluster always stay together.
#pragma once

#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/sched/schedule.h"
#include "tgs/util/types.h"

namespace tgs {

/// Extract the cluster labels (processor ids) of a completed schedule.
std::vector<ProcId> clusters_of(const Schedule& s);

/// Sarkar's assignment: clusters in descending total-work order; each is
/// committed to the processor that minimizes the makespan of the ordered
/// partial schedule (execution order = descending b-level, as in
/// cluster_schedule.h). O(k * p * (v + e)) for k clusters.
Schedule map_clusters_sarkar(const TaskGraph& g,
                             const std::vector<ProcId>& clusters,
                             int num_procs);

/// Yang's RCP-style merge: clusters in descending total-work order are
/// placed LPT-style on the least-loaded processor, ignoring execution
/// order; one final list schedule materializes the result. O(k log k + v).
Schedule map_clusters_rcp(const TaskGraph& g,
                          const std::vector<ProcId>& clusters,
                          int num_procs);

/// The assignment step of map_clusters_rcp alone: fold the clusters onto
/// `num_procs` processors LPT-style and return the node -> processor map
/// without materializing a schedule. param_schedule uses this to bound its
/// cluster step's cluster count when SchedOptions::num_procs is set.
std::vector<ProcId> rcp_cluster_assignment(const TaskGraph& g,
                                           const std::vector<ProcId>& clusters,
                                           int num_procs);

}  // namespace tgs
