// Ready list: the set of tasks whose parents have all been scheduled
// (paper §3 "Static List vs. Dynamic List"). The list itself is kept sorted
// by node id; selection policy (static priority, dynamic recomputation,
// (node, processor)-pair search) is the algorithm's business.
#pragma once

#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/util/types.h"

namespace tgs {

class ReadyList {
 public:
  explicit ReadyList(const TaskGraph& g);

  bool empty() const { return ready_.empty(); }
  std::size_t size() const { return ready_.size(); }

  /// Currently ready tasks, ascending node id.
  const std::vector<NodeId>& ready() const { return ready_; }

  bool is_ready(NodeId n) const { return ready_flag_[n]; }

  /// Remove n from the ready set (it was scheduled) and admit any children
  /// that became ready. n must currently be ready.
  void mark_scheduled(NodeId n);

 private:
  const TaskGraph* graph_;
  std::vector<std::size_t> unscheduled_parents_;
  std::vector<NodeId> ready_;  // sorted by id
  std::vector<bool> ready_flag_;
};

}  // namespace tgs
