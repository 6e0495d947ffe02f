// Weighted directed acyclic task graph (the paper's program model, §2).
//
// A node is a task with a computation cost w(n); an edge (u, v) carries a
// communication cost c(u, v) paid only when u and v run on different
// processors. TaskGraph is immutable once built; construction goes through
// TaskGraphBuilder, which validates acyclicity and computes a topological
// order exactly once.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "tgs/util/types.h"

namespace tgs {

/// Outgoing or incoming adjacency entry: peer node + edge cost.
struct Adj {
  NodeId node;
  Cost cost;

  friend bool operator==(const Adj&, const Adj&) = default;
};

class TaskGraphBuilder;

class TaskGraph {
 public:
  /// Number of tasks.
  NodeId num_nodes() const { return static_cast<NodeId>(weights_.size()); }

  /// Number of edges.
  std::size_t num_edges() const { return num_edges_; }

  /// Computation cost of node n.
  Cost weight(NodeId n) const { return weights_[n]; }

  /// Sum of all computation costs (serial execution time).
  Cost total_weight() const { return total_weight_; }

  /// Children (successors) of n with edge costs, sorted by node id.
  std::span<const Adj> children(NodeId n) const {
    return {succ_.data() + succ_off_[n], succ_off_[n + 1] - succ_off_[n]};
  }

  /// Parents (predecessors) of n with edge costs, sorted by node id.
  std::span<const Adj> parents(NodeId n) const {
    return {pred_.data() + pred_off_[n], pred_off_[n + 1] - pred_off_[n]};
  }

  std::size_t num_children(NodeId n) const {
    return succ_off_[n + 1] - succ_off_[n];
  }
  std::size_t num_parents(NodeId n) const {
    return pred_off_[n + 1] - pred_off_[n];
  }

  /// Edge cost of (u, v); kNoEdge (-1) when the edge does not exist.
  static constexpr Cost kNoEdge = -1;
  Cost edge_cost(NodeId u, NodeId v) const;

  /// Dense id in [0, num_edges()) of the edge from n's i-th parent
  /// (parents(n)[i]) to n: its slot in the CSR predecessor array. Slots
  /// number the edges in the order parents(0), parents(1), ... list them,
  /// so a walk over all parents can count them instead. Per-edge side
  /// tables filled while walking parents index by it.
  std::size_t parent_slot(NodeId n, std::size_t i) const {
    return pred_off_[n] + i;
  }

  /// Nodes with no parents.
  const std::vector<NodeId>& entry_nodes() const { return entries_; }

  /// A fixed topological order (parents precede children), computed at
  /// build time with deterministic (Kahn, min-id) tie-breaking.
  const std::vector<NodeId>& topological_order() const { return topo_; }

  /// Optional human-readable node label ("n1", "T(2,3)", ...). Empty vector
  /// when the builder assigned none.
  const std::string& label(NodeId n) const;
  bool has_labels() const { return !labels_.empty(); }

  /// Graph-level name for table/debug output.
  const std::string& name() const { return name_; }

  /// Average communication cost / average computation cost. Returns 0 for
  /// edge-free graphs.
  double ccr() const;

 private:
  friend class TaskGraphBuilder;
  TaskGraph() = default;

  std::string name_;
  std::vector<Cost> weights_;
  std::vector<std::string> labels_;

  // CSR adjacency, both directions.
  std::vector<std::size_t> succ_off_, pred_off_;
  std::vector<Adj> succ_, pred_;

  std::vector<NodeId> entries_, topo_;
  std::size_t num_edges_ = 0;
  Cost total_weight_ = 0;
  Cost total_edge_cost_ = 0;  // for ccr()
};

/// Node n's label, or "n<n+1>" when the graph has none: the name listings
/// and error messages print.
std::string node_name(const TaskGraph& g, NodeId n);

/// Mutable builder. add_node returns dense ids in call order. finalize()
/// throws std::invalid_argument on cycles, self-loops, duplicate edges,
/// non-positive node weights, or node weights plus edge costs summing to
/// kTimeInf or more.
class TaskGraphBuilder {
 public:
  explicit TaskGraphBuilder(std::string name = "graph");

  /// Pre-sizes internal arrays for a graph of known shape. Generators that
  /// know v and e up front (traced kernels, scale-mode random graphs) call
  /// this once so the 100k-node path does a handful of allocations instead
  /// of O(log V) geometric regrowths copying multi-MB edge arrays.
  void reserve(std::size_t nodes, std::size_t edges);

  /// Adds a task; `label` is optional (empty = auto "n<i+1>").
  NodeId add_node(Cost weight, std::string label = {});

  /// Adds a dependence u -> v with communication cost >= 0.
  void add_edge(NodeId u, NodeId v, Cost cost);

  NodeId num_nodes() const { return static_cast<NodeId>(weights_.size()); }

  /// Validates and produces the immutable graph. The builder is left empty.
  TaskGraph finalize();

 private:
  struct Edge {
    NodeId u, v;
    Cost cost;
  };
  std::string name_;
  std::vector<Cost> weights_;
  std::vector<std::string> labels_;
  std::vector<Edge> edges_;
  bool any_label_ = false;
};

}  // namespace tgs
