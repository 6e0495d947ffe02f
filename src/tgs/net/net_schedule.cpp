#include "tgs/net/net_schedule.h"

#include <algorithm>
#include <stdexcept>

namespace tgs {

NetSchedule::NetSchedule(const TaskGraph& g, const RoutingTable& routes)
    : tasks_(g, routes.topology().num_procs()),
      routes_(&routes),
      links_(routes.topology().num_links()),
      msg_of_(g.num_edges(), kNoMessage) {}

void NetSchedule::reset() {
  tasks_.reset();
  for (Timeline& link : links_) link.clear();
  messages_.clear();
  hops_.clear();
  std::fill(msg_of_.begin(), msg_of_.end(), kNoMessage);
}

Time NetSchedule::commit_parent_message(NodeId v, std::size_t i,
                                        int dst_proc) {
  const Adj& par = graph().parents(v)[i];
  const NodeId u = par.node;
  if (!tasks_.is_placed(u)) throw std::logic_error("message src not placed");
  const std::size_t slot = graph().parent_slot(v, i);
  const int src_proc = tasks_.proc(u);
  const Time depart = tasks_.finish(u);
  if (src_proc == dst_proc) return depart;
  if (msg_of_[slot] != kNoMessage)
    throw std::logic_error("message already committed");

  const auto id = static_cast<std::uint32_t>(messages_.size());
  const Cost size = par.cost;
  Message msg{u, v, size, depart, depart,
              static_cast<std::uint32_t>(hops_.size()), 0};
  if (size > 0) {
    // The route is stored as parent pointers, so write its links
    // back-to-front into the message's arena slot, then time the hops
    // forward. Zero-size messages are instantaneous and occupy no link.
    msg.hop_count = static_cast<std::uint32_t>(
        routes_->distance(src_proc, dst_proc));
    hops_.resize(hops_.size() + msg.hop_count);
    MsgHop* route = hops_.data() + msg.hop_begin;
    for (int cur = dst_proc, h = static_cast<int>(msg.hop_count); h > 0;) {
      const RoutingTable::SweepStep& st = routes_->tree_edge(src_proc, cur);
      route[--h].link = st.link;
      cur = st.parent;
    }
    Time t = depart;
    for (std::uint32_t h = 0; h < msg.hop_count; ++h) {
      Timeline& link = links_[route[h].link];
      const Time hop_start = link.earliest_fit(t, size, /*insertion=*/true);
      link.occupy(id, hop_start, size);
      route[h].start = hop_start;
      route[h].end = t = hop_start + size;
    }
    msg.arrival = t;
  }
  messages_.push_back(msg);
  msg_of_[slot] = id;
  return msg.arrival;
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

}  // namespace tgs
