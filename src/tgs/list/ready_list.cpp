#include "tgs/list/ready_list.h"

#include <algorithm>
#include <stdexcept>

namespace tgs {

ReadyList::ReadyList(const TaskGraph& g)
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

void ReadyList::mark_scheduled(NodeId n) {
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

}  // namespace tgs
