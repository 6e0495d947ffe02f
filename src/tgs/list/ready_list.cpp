#include "tgs/list/ready_list.h"

#include <stdexcept>

namespace tgs {

ReadyList::ReadyList(const TaskGraph& g)
    : graph_(&g),
      unscheduled_parents_(g.num_nodes()),
      pos_(g.num_nodes(), kNoNode) {
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    unscheduled_parents_[n] = static_cast<NodeId>(g.num_parents(n));
    if (unscheduled_parents_[n] == 0) {
      pos_[n] = static_cast<NodeId>(ready_.size());
      ready_.push_back(n);
    }
  }
}

std::span<const NodeId> ReadyList::mark_scheduled(NodeId n) {
  const NodeId at = pos_[n];
  if (at == kNoNode) throw std::logic_error("node not ready");
  // Swap-remove: the last entry takes n's slot.
  const NodeId last = ready_.back();
  ready_[at] = last;
  pos_[last] = at;
  pos_[n] = kNoNode;
  ready_.pop_back();
  const std::size_t first = ready_.size();
  for (const Adj& c : graph_->children(n)) {
    if (--unscheduled_parents_[c.node] == 0) {
      pos_[c.node] = static_cast<NodeId>(ready_.size());
      ready_.push_back(c.node);
    }
  }
  return std::span<const NodeId>(ready_).subspan(first);
}

}  // namespace tgs
