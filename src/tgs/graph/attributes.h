// Node attributes used by scheduling heuristics (paper §3):
//
//   t-level(n)  longest entry->n path length, EXCLUDING w(n); equals the
//               earliest possible start time of n when communication is
//               never zeroed.
//   b-level(n)  longest n->exit path length, INCLUDING w(n).
//   static level (SL) b-level computed with all edge costs treated as zero.
//   ALAP(n)     CP_length - b-level(n): latest start not stretching the CP.
//   CP          a critical path: entry->exit path of maximum total
//               (node + edge) weight.
//
// All functions run in O(V + E) over the fixed topological order and break
// ties deterministically (smallest node id).
#pragma once

#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/util/types.h"

namespace tgs {

/// t-level of every node (comm-inclusive longest path from an entry).
std::vector<Time> t_levels(const TaskGraph& g);

/// b-level of every node (comm-inclusive longest path to an exit).
std::vector<Time> b_levels(const TaskGraph& g);

/// Static level: longest path to an exit counting node weights only.
std::vector<Time> static_levels(const TaskGraph& g);

// In-place variants: resize + overwrite `out`, reusing its capacity. These
// are the allocation-free versions the GraphAttributeCache builds on; the
// by-value functions above are thin wrappers.
void t_levels_into(const TaskGraph& g, std::vector<Time>& out);
void b_levels_into(const TaskGraph& g, std::vector<Time>& out);
void static_levels_into(const TaskGraph& g, std::vector<Time>& out);

/// Length of the critical path: max over nodes of t_level + w (equivalently
/// max b-level over entry nodes).
Time critical_path_length(const TaskGraph& g);

/// ALAP start times: critical_path_length - b_level.
std::vector<Time> alap_times(const TaskGraph& g);

/// One critical path as a node sequence from an entry to an exit. Ties are
/// broken toward smaller node ids, so the result is deterministic.
std::vector<NodeId> critical_path(const TaskGraph& g);

/// Sum of computation costs along `path` (the NSL denominator, paper §6).
Cost path_computation_cost(const TaskGraph& g, const std::vector<NodeId>& path);

/// Lazy per-graph attribute cache. A scheduling sweep runs many algorithms
/// on the same graph; each attribute (static levels, b-levels, ...) is
/// computed at most once per bind() instead of once per Scheduler::run.
/// The buffers are reused across binds, so a long-lived cache (e.g. inside
/// a SchedWorkspace) stops allocating once it has seen its largest graph.
///
/// Not thread-safe; one cache per worker. The caller owns the aliasing
/// contract: bind() must be called again whenever the underlying graph
/// object changes, even if a new graph happens to reuse the same address.
class GraphAttributeCache {
 public:
  /// Point the cache at `g` and invalidate everything. Cheap (no attribute
  /// is computed until first use).
  void bind(const TaskGraph& g);

  /// The currently bound graph (nullptr before the first bind()).
  const TaskGraph* graph() const { return graph_; }

  /// Each accessor computes on first use, then returns the cached vector.
  /// Throws std::logic_error when no graph is bound.
  const std::vector<Time>& static_levels();
  const std::vector<Time>& b_levels();
  const std::vector<Time>& t_levels();
  const std::vector<Time>& alap_times();
  Time critical_path_length();

 private:
  const TaskGraph& bound() const;

  const TaskGraph* graph_ = nullptr;
  std::vector<Time> sl_, bl_, tl_, alap_;
  bool have_sl_ = false, have_bl_ = false, have_tl_ = false,
       have_alap_ = false, have_cp_ = false;
  Time cp_len_ = 0;
};

}  // namespace tgs
