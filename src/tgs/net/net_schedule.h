// NetSchedule: a task schedule plus the message schedule on network links.
//
// The APN machine model (paper §4): tasks execute on processors of an
// arbitrary topology; every cross-processor edge (u, v) becomes a message
// that must traverse the fixed route from proc(u) to proc(v),
// store-and-forward, occupying each link for c(u, v) time units, one
// message per link at a time. The message may wait at intermediate nodes
// (hops need not be back-to-back) and departs no earlier than FT(u); the
// child may start only after the last hop completes.
//
// Messages are kept in three flat arrays: the messages in commit order
// (append-only until reset(): nothing un-routes a message), one arena of
// all hops that each message addresses by offset and count, and a
// per-edge index keyed by TaskGraph::parent_slot, which a commit walking
// the child's parents already holds. A link reservation's owner is the
// index of its message in messages().
#pragma once

#include <cstdint>
#include <span>
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
  Time arrival;       // last hop end (== depart_after for a zero-size message)
  std::uint32_t hop_begin;  // first hop in the NetSchedule's hop arena
  std::uint32_t hop_count;  // route length; 0 for a zero-size message
};

class NetSchedule {
 public:
  NetSchedule(const TaskGraph& g, const RoutingTable& routes);

  const TaskGraph& graph() const { return tasks_.graph(); }
  const Topology& topology() const { return routes_->topology(); }
  const RoutingTable& routes() const { return *routes_; }

  Schedule& tasks() { return tasks_; }
  const Schedule& tasks() const { return tasks_; }

  /// Unplace every task and drop every message, keeping the capacity of
  /// every array and timeline, so a rebuild into a reset schedule
  /// allocates nothing once it has been warmed up. Afterwards the
  /// schedule equals a freshly constructed one.
  void reset();

  /// Route the message of the edge from v's i-th parent u = parents(v)[i]
  /// (u placed, v's processor given) and commit the link reservations.
  /// Returns the arrival time at dst_proc. The edge is named by its parent
  /// index because every caller is walking v's parents. Co-located
  /// endpoints produce no message and arrive at FT(u). Throws
  /// std::logic_error if u is unplaced or the edge's message was already
  /// committed.
  Time commit_parent_message(NodeId v, std::size_t i, int dst_proc);

  /// One-to-all probe: fills out[p] (out.size() == num_procs) with the
  /// arrival time a message of `size` leaving src_proc no earlier than
  /// `depart_after` WOULD have at every processor p if routed now, without
  /// reserving links. Walks the shortest-path routing tree of src_proc so
  /// each tree link is probed exactly once -- O(links) instead of
  /// O(procs x diameter) for per-destination route walks, and bit-identical
  /// to them (the route to p is a tree path; probes reserve nothing).
  /// Concurrent probes do not see each other (documented approximation;
  /// commits are exact).
  void probe_arrival_all(int src_proc, Cost size, Time depart_after,
                         std::span<Time> out) const;

  /// Committed messages in commit order.
  std::span<const Message> messages() const { return messages_; }

  /// The hops of a committed message, in route order.
  std::span<const MsgHop> hops(const Message& m) const {
    return {hops_.data() + m.hop_begin, m.hop_count};
  }

  /// The committed message of the edge in parent-CSR slot `slot`
  /// (TaskGraph::parent_slot), or nullptr: an array lookup. The pointer is
  /// invalidated by the next commit.
  const Message* find_message(std::size_t slot) const {
    return msg_of_[slot] == kNoMessage ? nullptr : &messages_[msg_of_[slot]];
  }

  const Timeline& link_timeline(int link) const { return links_[link]; }

  /// Makespan of the task schedule (message tails never extend past the
  /// last dependent task's start in a valid schedule).
  Time makespan() const { return tasks_.makespan(); }

 private:
  static constexpr std::uint32_t kNoMessage = ~std::uint32_t{0};

  Schedule tasks_;
  const RoutingTable* routes_;
  std::vector<Timeline> links_;
  std::vector<Message> messages_;       // commit order
  std::vector<MsgHop> hops_;            // arena of all messages' hops
  std::vector<std::uint32_t> msg_of_;   // per parent slot: index or kNoMessage
};

}  // namespace tgs
