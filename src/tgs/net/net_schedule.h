// NetSchedule: a task schedule plus the message schedule on network links.
//
// The APN machine model (paper §4): tasks execute on processors of an
// arbitrary topology; every cross-processor edge (u, v) becomes a message
// that must traverse the fixed route from proc(u) to proc(v),
// store-and-forward, occupying each link for c(u, v) time units, one
// message per link at a time. The message may wait at intermediate nodes
// (hops need not be back-to-back) and departs no earlier than FT(u); the
// child may start only after the last hop completes.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "tgs/net/routing.h"
#include "tgs/sched/schedule.h"
#include "tgs/sched/timeline.h"

namespace tgs {

struct MsgHop {
  int link;
  Time start;
  Time end;
};

struct Message {
  NodeId src;
  NodeId dst;
  Cost size;
  Time depart_after;  // FT(src) at routing time
  Time arrival;       // last hop end (== depart_after when co-located)
  std::vector<MsgHop> hops;
};

class NetSchedule {
 public:
  NetSchedule(const TaskGraph& g, const RoutingTable& routes);

  const TaskGraph& graph() const { return tasks_.graph(); }
  const Topology& topology() const { return routes_->topology(); }
  const RoutingTable& routes() const { return *routes_; }

  Schedule& tasks() { return tasks_; }
  const Schedule& tasks() const { return tasks_; }

  /// Route the message of edge (u, v) (u placed, v's processor given) and
  /// commit the link reservations. Returns the arrival time at dst_proc.
  /// Co-located endpoints produce no message and arrive at depart_after.
  Time commit_message(NodeId u, NodeId v, int dst_proc);

  /// Arrival time the message WOULD have if routed now, without reserving
  /// links. Concurrent probes do not see each other (documented
  /// approximation; commits are exact).
  Time probe_arrival(int src_proc, int dst_proc, Cost size,
                     Time depart_after) const;

  /// One-to-all probe: fills out[p] (out.size() == num_procs) with
  /// probe_arrival(src_proc, p, size, depart_after) for every processor,
  /// walking the shortest-path routing tree of src_proc so each tree link
  /// is probed exactly once -- O(links) instead of O(procs x diameter)
  /// for a per-destination sweep. Bit-identical to per-destination probes
  /// (the path to p is a prefix-closed tree path; probes reserve nothing).
  void probe_arrival_all(int src_proc, Cost size, Time depart_after,
                         std::span<Time> out) const;

  /// Remove the committed message of edge (u, v), releasing its links.
  void release_message(NodeId u, NodeId v);

  /// Committed messages sorted by (src, dst); rebuilt lazily.
  const std::vector<Message>& messages() const;

  /// The committed message of edge (u, v), or nullptr -- a keyed hash
  /// lookup (validation was an O(messages) scan per edge without it). The
  /// pointer is invalidated by the next commit/release.
  const Message* find_message(NodeId u, NodeId v) const;

  const Timeline& link_timeline(int link) const { return links_[link]; }

  /// Makespan of the task schedule (message tails never extend past the
  /// last dependent task's start in a valid schedule).
  Time makespan() const { return tasks_.makespan(); }

 private:
  static std::int64_t msg_key(NodeId u, NodeId v) {
    return (static_cast<std::int64_t>(u) << 32) | v;
  }

  Schedule tasks_;
  const RoutingTable* routes_;
  std::vector<Timeline> links_;
  std::unordered_map<std::int64_t, Message> messages_;
  mutable std::vector<Message> order_;  // rebuilt lazily for messages()
  mutable bool order_dirty_ = true;
};

}  // namespace tgs
