// Clustering support for the UNC (unbounded number of clusters) algorithms,
// and the bodies of the three UNC algorithms no parameter point expresses.
//
// UNC scheduling (paper §4) starts with one cluster per node and merges
// clusters when that reduces the completion time; a cluster is ultimately a
// virtual processor. Cluster ids are numbered by smallest member, so they
// are stable across runs.
#pragma once

#include <vector>

#include "tgs/sched/scheduler.h"
#include "tgs/util/types.h"

namespace tgs {

/// Dense renumbering of an arbitrary assignment vector (cluster labels of
/// any kind -> 0-based processor ids ordered by first appearance).
std::vector<ProcId> densify(const std::vector<NodeId>& labels);

// The clustering cores of the UNC algorithms, returning the dense
// node -> cluster assignment without materializing a Schedule. These are
// the cluster steps of the parameterized scheduler (src/tgs/param/); EZ
// and LC themselves are the parameter points
// bl/static/append/{ez,lc} built on the first two. `ws` is bound to `g`.
//   ez_clusters  -- Sarkar edge zeroing (unc/ez.cpp); polls ws.deadline()
//                   once per tentative merge, so an expired request
//                   throws DeadlineExceeded from inside the O(e (v + e))
//                   pass rather than after it
//   lc_clusters  -- Kim-Browne linear path peeling (unc/lc.cpp)
//   dsc_clusters -- clusters of a full DSC run (unc/dsc.cpp), densified;
//                   DSC's interleaved start-time assignment cannot be
//                   replayed by a generic list phase, so only its cluster
//                   map is reused (docs/parameterized.md).
std::vector<ProcId> ez_clusters(const TaskGraph& g, SchedWorkspace& ws);
std::vector<ProcId> lc_clusters(const TaskGraph& g);
std::vector<ProcId> dsc_clusters(const TaskGraph& g, SchedWorkspace& ws);

// The bodies of DSC, MD and DCP, one per source file (unc/dsc.cpp,
// unc/md.cpp, unc/dcp.cpp, where each algorithm's note sits). Same
// contract as Scheduler::Body.
Schedule dsc_schedule(const TaskGraph& g, const SchedOptions& opt,
                      SchedWorkspace& ws);
Schedule md_schedule(const TaskGraph& g, const SchedOptions& opt,
                     SchedWorkspace& ws);
Schedule dcp_schedule(const TaskGraph& g, const SchedOptions& opt,
                      SchedWorkspace& ws);

}  // namespace tgs
