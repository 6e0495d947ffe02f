// Clustering support for the UNC (unbounded number of clusters) algorithms.
//
// UNC scheduling (paper §4) starts with one cluster per node and merges
// clusters when that reduces the completion time; a cluster is ultimately a
// virtual processor. DisjointSets tracks cluster membership with
// deterministic representatives (the smallest member id), so cluster ids
// are stable across runs.
#pragma once

#include <vector>

#include "tgs/util/types.h"

namespace tgs {

class TaskGraph;
class RunDeadline;  // sched/workspace.h

class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n);

  /// Representative (smallest member) of x's set.
  NodeId find(NodeId x) const;

  /// Merge the sets of a and b; the representative of the union is the
  /// smaller of the two representatives. Returns the new representative.
  NodeId merge(NodeId a, NodeId b);

  bool same(NodeId a, NodeId b) const { return find(a) == find(b); }

  std::size_t size() const { return parent_.size(); }

 private:
  // Path compression is applied lazily in the non-const overload used
  // internally; find() is logically const.
  mutable std::vector<NodeId> parent_;
};

/// Map each node's cluster representative to a dense ProcId, numbering
/// clusters by the order their representatives appear (i.e., by smallest
/// member id). Result[n] is the processor/cluster of node n.
std::vector<ProcId> dense_assignment(const DisjointSets& ds);

/// Dense renumbering of an arbitrary assignment vector (cluster labels of
/// any kind -> 0-based processor ids ordered by first appearance).
std::vector<ProcId> densify(const std::vector<NodeId>& labels);

// The clustering cores of the UNC algorithms, returning the dense
// node -> cluster assignment without materializing a Schedule. These are
// the ClusterStep components of the parameterized scheduler
// (src/tgs/param/); EZ and LC themselves are the parameter points
// bl/static/append/{ez,lc} built on the first two.
//   ez_clusters  -- Sarkar edge zeroing (unc/ez.cpp); polls `deadline`
//                   once per tentative merge, so an expired request
//                   throws DeadlineExceeded from inside the O(e (v + e))
//                   pass rather than after it
//   lc_clusters  -- Kim-Browne linear path peeling (unc/lc.cpp)
//   dsc_clusters -- clusters of a full DSC run (unc/dsc.cpp), densified;
//                   DSC's interleaved start-time assignment cannot be
//                   replayed by a generic list phase, so only its cluster
//                   map is reused (docs/parameterized.md).
std::vector<ProcId> ez_clusters(const TaskGraph& g, RunDeadline& deadline);
std::vector<ProcId> lc_clusters(const TaskGraph& g);
std::vector<ProcId> dsc_clusters(const TaskGraph& g);

}  // namespace tgs
