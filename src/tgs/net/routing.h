// Deterministic static shortest-path routing for APN message scheduling.
//
// Routes are computed once per topology by per-source BFS with smallest-id
// tie-breaking, so every (src, dst) pair has one fixed path -- the paper's
// APN algorithms assume a routing table, not adaptive routing.
//
// The routes out of one source form a shortest-path tree (the route to any
// destination is the route to its parent plus one hop), and those trees
// are the only route store:
//  * sweep(src) publishes the tree's P-1 edges in BFS order, parents before
//    children. NetSchedule::probe_arrival_all walks it to probe the arrival
//    at ALL destinations touching each link exactly once.
//  * tree_edge(src, dst) is the same edge looked up by destination in O(1)
//    (one P^2 index into the sweep). A route is read back-to-front by
//    following parents from dst to src, at most diameter steps.
// Memory is O(P^2): 16 bytes per tree edge plus a 4-byte index entry.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tgs/net/topology.h"

namespace tgs {

class RoutingTable {
 public:
  /// Takes a copy of the topology: a RoutingTable is self-contained and can
  /// be built from a temporary.
  explicit RoutingTable(Topology topo);

  const Topology& topology() const { return topo_; }

  /// One edge of a source's shortest-path routing tree: the route to
  /// `proc` is the route to `parent` (src itself at depth 1) followed by
  /// `link`; `depth` is the route's hop count.
  struct SweepStep {
    std::int32_t proc;
    std::int32_t parent;
    std::int32_t link;
    std::int32_t depth;
  };

  /// The P-1 routing-tree edges out of `src`, in BFS order (every parent
  /// appears as `proc` before it appears as `parent`), ascending peer id
  /// within a parent. A one-to-all arrival sweep is one forward walk.
  std::span<const SweepStep> sweep(int src) const {
    const std::size_t n =
        static_cast<std::size_t>(topo_.num_procs()) - 1;
    return {sweep_.data() + static_cast<std::size_t>(src) * n, n};
  }

  /// The last edge of the route src -> dst (src != dst).
  const SweepStep& tree_edge(int src, int dst) const {
    return sweep_[step_of_[index(src, dst)]];
  }

  /// Hop count of the route (0 when src == dst).
  int distance(int src, int dst) const {
    return src == dst ? 0 : tree_edge(src, dst).depth;
  }

 private:
  std::size_t index(int src, int dst) const {
    return static_cast<std::size_t>(src) * topo_.num_procs() + dst;
  }

  Topology topo_;
  std::vector<SweepStep> sweep_;          // P * (P-1) routing-tree edges
  std::vector<std::uint32_t> step_of_;    // P^2: sweep_ slot of (src, dst)
};

}  // namespace tgs
