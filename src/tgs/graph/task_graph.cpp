#include "tgs/graph/task_graph.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "tgs/util/names.h"

namespace tgs {

Cost TaskGraph::edge_cost(NodeId u, NodeId v) const {
  const auto kids = children(u);
  // Children are sorted by id: binary search.
  auto it = std::lower_bound(
      kids.begin(), kids.end(), v,
      [](const Adj& a, NodeId id) { return a.node < id; });
  return it == kids.end() || it->node != v ? kNoEdge : it->cost;
}

const std::string& TaskGraph::label(NodeId n) const {
  static const std::string kEmpty;
  if (labels_.empty()) return kEmpty;
  return labels_[n];
}

std::string node_name(const TaskGraph& g, NodeId n) {
  return g.has_labels() ? g.label(n) : numbered_name("n", n + 1);
}

double TaskGraph::ccr() const {
  if (num_edges_ == 0 || num_nodes() == 0) return 0.0;
  const double avg_comm =
      static_cast<double>(total_edge_cost_) / static_cast<double>(num_edges_);
  const double avg_comp =
      static_cast<double>(total_weight_) / static_cast<double>(num_nodes());
  return avg_comp == 0.0 ? 0.0 : avg_comm / avg_comp;
}

TaskGraphBuilder::TaskGraphBuilder(std::string name) : name_(std::move(name)) {}

void TaskGraphBuilder::reserve(std::size_t nodes, std::size_t edges) {
  weights_.reserve(nodes);
  labels_.reserve(nodes);
  edges_.reserve(edges);
}

NodeId TaskGraphBuilder::add_node(Cost weight, std::string label) {
  if (weight <= 0) throw std::invalid_argument("node weight must be positive");
  const NodeId id = static_cast<NodeId>(weights_.size());
  weights_.push_back(weight);
  if (!label.empty()) any_label_ = true;
  labels_.push_back(std::move(label));
  return id;
}

void TaskGraphBuilder::add_edge(NodeId u, NodeId v, Cost cost) {
  if (u >= weights_.size() || v >= weights_.size())
    throw std::invalid_argument("edge endpoint out of range");
  if (u == v) throw std::invalid_argument("self loop");
  if (cost < 0) throw std::invalid_argument("edge cost must be >= 0");
  edges_.push_back({u, v, cost});
}

TaskGraph TaskGraphBuilder::finalize() {
  const NodeId n = static_cast<NodeId>(weights_.size());
  TaskGraph g;
  g.name_ = std::move(name_);
  g.weights_ = std::move(weights_);
  if (any_label_) {
    g.labels_ = std::move(labels_);
    for (NodeId i = 0; i < n; ++i)
      if (g.labels_[i].empty()) g.labels_[i] = 'n' + std::to_string(i + 1);
  }

  // CSR by counting sort: bucket the edges into successor rows in input
  // order, sort only the rows that did not arrive sorted (generators and
  // graph_to_string emit edges in (u, v) order), and reject duplicates as
  // equal neighbours within a row.
  g.succ_off_.assign(n + 1, 0);
  g.pred_off_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++g.succ_off_[e.u + 1];
    ++g.pred_off_[e.v + 1];
  }
  for (NodeId i = 0; i < n; ++i) {
    g.succ_off_[i + 1] += g.succ_off_[i];
    g.pred_off_[i + 1] += g.pred_off_[i];
  }
  g.succ_.resize(edges_.size());
  g.pred_.resize(edges_.size());
  std::vector<std::size_t> pos(g.succ_off_.begin(), g.succ_off_.end() - 1);
  for (const Edge& e : edges_) g.succ_[pos[e.u]++] = {e.v, e.cost};
  const auto by_node = [](const Adj& a, const Adj& b) {
    return a.node < b.node;
  };
  const auto not_before = [](const Adj& a, const Adj& b) {
    return a.node >= b.node;
  };
  for (NodeId u = 0; u < n; ++u) {
    const auto first = g.succ_.begin() + g.succ_off_[u];
    const auto last = g.succ_.begin() + g.succ_off_[u + 1];
    if (std::adjacent_find(first, last, not_before) == last) continue;
    std::stable_sort(first, last, by_node);
    if (std::adjacent_find(first, last, not_before) != last)
      throw std::invalid_argument("duplicate edge");
  }

  // Predecessor rows filled by walking the successor rows in u order, so
  // each comes out sorted by parent id.
  pos.assign(g.pred_off_.begin(), g.pred_off_.end() - 1);
  for (NodeId u = 0; u < n; ++u)
    for (const Adj& c : g.children(u)) g.pred_[pos[c.node]++] = {u, c.cost};
  g.num_edges_ = edges_.size();
  // Every path length, level and makespan is at most the sum of all weights
  // and costs, so bounding that sum below kTimeInf keeps all the Time
  // arithmetic downstream exact. Summed in 128 bits, which fewer than 2^64
  // terms below 2^63 each cannot overflow.
  __int128 weight_sum = 0, cost_sum = 0;
  for (Cost w : g.weights_) weight_sum += w;
  for (const Edge& e : edges_) cost_sum += e.cost;
  if (weight_sum + cost_sum >= kTimeInf)
    throw std::invalid_argument("node weights plus edge costs must sum below " +
                                std::to_string(kTimeInf));
  g.total_weight_ = static_cast<Cost>(weight_sum);
  g.total_edge_cost_ = static_cast<Cost>(cost_sum);

  for (NodeId i = 0; i < n; ++i)
    if (g.num_parents(i) == 0) g.entries_.push_back(i);

  // Kahn topological sort with a min-id heap: deterministic order, cycle
  // detection.
  std::vector<std::size_t> indeg(n);
  for (NodeId i = 0; i < n; ++i) indeg[i] = g.num_parents(i);
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>> ready;
  for (NodeId i = 0; i < n; ++i)
    if (indeg[i] == 0) ready.push(i);
  g.topo_.reserve(n);
  while (!ready.empty()) {
    const NodeId u = ready.top();
    ready.pop();
    g.topo_.push_back(u);
    for (const Adj& a : g.children(u))
      if (--indeg[a.node] == 0) ready.push(a.node);
  }
  if (g.topo_.size() != n) throw std::invalid_argument("graph has a cycle");

  edges_.clear();
  labels_.clear();
  any_label_ = false;
  return g;
}

}  // namespace tgs
