// The ready list as it stood before list/ready_list.h dropped its order: a
// vector kept sorted by node id, a binary-search erase per scheduled node
// and one sorted insert per admitted child, O(width) memory moves each.
// Tests use it as the set oracle of the production ReadyList, and drains
// that index ready() (front(), a random position) use it so that they
// walk the same nodes they always did; tgs_perf's BM_ReadyList_Reference
// times it against the production set.
//
// Deliberately a straight-line copy of the retired code -- do not
// "optimize" it; its independence from the code under test is the point.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/util/types.h"

namespace tgs::reference {

class SortedReadyList {
 public:
  explicit SortedReadyList(const TaskGraph& g)
      : graph_(&g),
        unscheduled_parents_(g.num_nodes()),
        ready_flag_(g.num_nodes(), false) {
    for (NodeId n = 0; n < g.num_nodes(); ++n)
      unscheduled_parents_[n] = g.num_parents(n);
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      if (unscheduled_parents_[n] == 0) {
        ready_.push_back(n);
        ready_flag_[n] = true;
      }
    }
  }

  bool empty() const { return ready_.empty(); }
  std::size_t size() const { return ready_.size(); }

  /// Currently ready tasks, ascending node id.
  const std::vector<NodeId>& ready() const { return ready_; }

  bool is_ready(NodeId n) const { return ready_flag_[n]; }

  /// Remove n from the ready set (it was scheduled) and admit any children
  /// that became ready. n must currently be ready.
  void mark_scheduled(NodeId n) {
    if (!ready_flag_[n]) throw std::logic_error("node not ready");
    ready_flag_[n] = false;
    // ready_ is sorted by id: binary search, not the O(width) linear find
    // (FFT-class graphs keep thousands of nodes ready at once).
    ready_.erase(std::lower_bound(ready_.begin(), ready_.end(), n));
    for (const Adj& c : graph_->children(n)) {
      if (--unscheduled_parents_[c.node] == 0) {
        auto it = std::lower_bound(ready_.begin(), ready_.end(), c.node);
        ready_.insert(it, c.node);
        ready_flag_[c.node] = true;
      }
    }
  }

 private:
  const TaskGraph* graph_;
  std::vector<std::size_t> unscheduled_parents_;
  std::vector<NodeId> ready_;  // sorted by id
  std::vector<bool> ready_flag_;
};

}  // namespace tgs::reference
