// Ready list: the set of tasks whose parents have all been scheduled
// (paper §3 "Static List vs. Dynamic List"). The set is kept in no
// particular order, so removing a node and admitting a child are O(1);
// selection policy (static priority, dynamic recomputation,
// (node, processor)-pair search) is the algorithm's business. A scan over
// ready() must therefore break its ties by a strict total order (in the
// end, by node id) so that its pick does not depend on the set's order.
#pragma once

#include <span>
#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/util/types.h"

namespace tgs {

class ReadyList {
 public:
  explicit ReadyList(const TaskGraph& g);

  bool empty() const { return ready_.empty(); }
  std::size_t size() const { return ready_.size(); }

  /// Currently ready tasks, in no particular order.
  const std::vector<NodeId>& ready() const { return ready_; }

  bool is_ready(NodeId n) const { return pos_[n] != kNoNode; }

  /// Remove n from the ready set (it was scheduled) and admit any children
  /// that became ready. n must currently be ready. Returns the admitted
  /// children in children() order; the span lives until the next call.
  std::span<const NodeId> mark_scheduled(NodeId n);

 private:
  const TaskGraph* graph_;
  // NodeId, not size_t: at v = 100k the two arrays cost 800 kB, not 1.6 MB.
  std::vector<NodeId> unscheduled_parents_;
  std::vector<NodeId> pos_;  // n's index in ready_; kNoNode when not ready
  std::vector<NodeId> ready_;
};

}  // namespace tgs
