#include "tgs/net/net_schedule.h"

#include <algorithm>
#include <stdexcept>

namespace tgs {

NetSchedule::NetSchedule(const TaskGraph& g, const RoutingTable& routes)
    : tasks_(g, routes.topology().num_procs()),
      routes_(&routes),
      links_(routes.topology().num_links()) {}

Time NetSchedule::commit_message(NodeId u, NodeId v, int dst_proc) {
  if (!tasks_.is_placed(u)) throw std::logic_error("message src not placed");
  const int src_proc = tasks_.proc(u);
  const Cost size = graph().edge_cost(u, v);
  if (size < 0) throw std::logic_error("no such edge");
  const Time depart = tasks_.finish(u);

  Message msg{u, v, size, depart, depart, {}};
  if (src_proc != dst_proc && size > 0) {
    Time t = depart;
    for (int link : routes_->path_links(src_proc, dst_proc)) {
      const Time hop_start = links_[link].earliest_fit(t, size, /*insertion=*/true);
      links_[link].occupy(msg_key(u, v), hop_start, size);
      msg.hops.push_back({link, hop_start, hop_start + size});
      t = hop_start + size;
    }
    msg.arrival = t;
  } else if (src_proc != dst_proc) {
    // Zero-size message: instantaneous, no link occupancy.
    msg.arrival = depart;
  }
  const Time arrival = msg.arrival;
  auto [it, inserted] = messages_.emplace(msg_key(u, v), std::move(msg));
  if (!inserted) throw std::logic_error("message already committed");
  order_dirty_ = true;
  return arrival;
}

Time NetSchedule::probe_arrival(int src_proc, int dst_proc, Cost size,
                                Time depart_after) const {
  if (src_proc == dst_proc || size <= 0) return depart_after;
  Time t = depart_after;
  for (int link : routes_->path_links(src_proc, dst_proc))
    t = links_[link].earliest_fit(t, size, /*insertion=*/true) + size;
  return t;
}

void NetSchedule::probe_arrival_all(int src_proc, Cost size,
                                    Time depart_after,
                                    std::span<Time> out) const {
  if (size <= 0) {
    std::fill(out.begin(), out.end(), depart_after);
    return;
  }
  out[src_proc] = depart_after;
  // Parents precede children in the sweep, so out[st.parent] is final by
  // the time the step crosses st.link.
  for (const RoutingTable::SweepStep& st : routes_->sweep(src_proc))
    out[st.proc] =
        links_[st.link].earliest_fit(out[st.parent], size, /*insertion=*/true) +
        size;
}

const Message* NetSchedule::find_message(NodeId u, NodeId v) const {
  const auto it = messages_.find(msg_key(u, v));
  return it == messages_.end() ? nullptr : &it->second;
}

void NetSchedule::release_message(NodeId u, NodeId v) {
  auto it = messages_.find(msg_key(u, v));
  if (it == messages_.end()) return;
  for (const MsgHop& hop : it->second.hops)
    links_[hop.link].release(msg_key(u, v), hop.start);
  messages_.erase(it);
  order_dirty_ = true;
}

const std::vector<Message>& NetSchedule::messages() const {
  if (order_dirty_) {
    order_.clear();
    order_.reserve(messages_.size());
    for (const auto& [key, msg] : messages_) order_.push_back(msg);
    std::sort(order_.begin(), order_.end(), [](const Message& a, const Message& b) {
      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
    order_dirty_ = false;
  }
  return order_;
}

}  // namespace tgs
