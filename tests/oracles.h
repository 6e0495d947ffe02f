// Graph and machine facts the tests check schedules against, and a reader
// of the tgssched1 text the library writes. No library path needs them, so
// they live with the tests: each is a plain pass over the public graph,
// topology and schedule API.
#pragma once

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/net/topology.h"
#include "tgs/sched/schedule.h"
#include "tgs/sched/timeline.h"

namespace tgs {

/// True if [start, start + dur) overlaps no interval of `tl`: the first
/// interval in start order that ends after `start` begins at or after
/// start + dur. So a zero-length block strictly inside an interval does
/// not fit, although Timeline::earliest_fit places one anywhere.
inline bool fits(const Timeline& tl, Time start, Cost dur) {
  for (const Interval& iv : tl.intervals())
    if (iv.end > start) return iv.start >= start + dur;
  return true;
}

/// Nodes with no children, in id order.
inline std::vector<NodeId> exit_nodes(const TaskGraph& g) {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (g.num_children(n) == 0) out.push_back(n);
  return out;
}

inline bool has_edge(const TaskGraph& g, NodeId u, NodeId v) {
  return g.edge_cost(u, v) >= 0;
}

/// Sum of all edge costs.
inline Cost total_edge_cost(const TaskGraph& g) {
  Cost sum = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    for (const Adj& c : g.children(n)) sum += c.cost;
  return sum;
}

/// Comm-free critical path length: max over paths of node-weight sums. A
/// lower bound on any schedule length (a chain runs serially even when
/// co-located).
inline Time computation_critical_path_length(const TaskGraph& g) {
  std::vector<Time> down(g.num_nodes(), 0);
  const auto& topo = g.topological_order();
  Time best = 0;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Time kid = 0;
    for (const Adj& c : g.children(*it)) kid = std::max(kid, down[c.node]);
    down[*it] = g.weight(*it) + kid;
    best = std::max(best, down[*it]);
  }
  return best;
}

/// Lower bound on any schedule length of g on p processors (p <= 0 means
/// unbounded): max(comp critical path, ceil(total work / p)).
inline Time schedule_length_lower_bound(const TaskGraph& g, int num_procs) {
  const Time cp = computation_critical_path_length(g);
  if (num_procs <= 0) return cp;
  const Time load = (g.total_weight() + num_procs - 1) / num_procs;  // ceil
  return std::max(cp, load);
}

/// Width of the DAG, layered by longest hop-count depth from an entry: the
/// largest number of nodes sharing one depth (exact for layered
/// generators).
inline std::size_t layered_width(const TaskGraph& g) {
  std::vector<std::size_t> depth(g.num_nodes(), 0);
  std::size_t max_depth = 0;
  for (NodeId u : g.topological_order()) {
    for (const Adj& p : g.parents(u))
      depth[u] = std::max(depth[u], depth[p.node] + 1);
    max_depth = std::max(max_depth, depth[u]);
  }
  std::vector<std::size_t> count(max_depth + 1, 0);
  for (NodeId i = 0; i < g.num_nodes(); ++i) ++count[depth[i]];
  return *std::max_element(count.begin(), count.end());
}

/// Link id between processors a and b, or -1.
inline int link_between(const Topology& t, int a, int b) {
  for (const Topology::Neighbor& nb : t.neighbors(a))
    if (nb.proc == b) return nb.link;
  return -1;
}

/// Parse a tgssched1 schedule (sched/schedule_io.h) for `g`. Throws
/// std::invalid_argument on malformed input or a node-count mismatch, and
/// std::logic_error (from Schedule::place) on overlapping placements.
inline Schedule schedule_from_string(const std::string& text,
                                     const TaskGraph& g) {
  std::istringstream is(text);
  std::string line, magic;
  NodeId count = 0;
  Time makespan = 0;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream hs(line);
    if (!(hs >> magic >> count >> makespan) || magic != "tgssched1")
      throw std::invalid_argument("bad tgssched1 header: " + line);
    break;
  }
  if (magic != "tgssched1")
    throw std::invalid_argument("missing tgssched1 header");
  if (count != g.num_nodes())
    throw std::invalid_argument("schedule/graph node count mismatch");

  Schedule s(g);
  NodeId seen = 0;
  while (seen < count && std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    NodeId n;
    ProcId p;
    Time start;
    if (!(ls >> kind >> n >> p >> start) || kind != "task")
      throw std::invalid_argument("bad task line: " + line);
    if (n >= count) throw std::invalid_argument("task id out of range");
    s.place(n, p, start);
    ++seen;
  }
  if (seen != count) throw std::invalid_argument("truncated tgssched1 stream");
  return s;
}

}  // namespace tgs
