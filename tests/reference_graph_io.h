// The retired tgs1 reader: std::istringstream + getline + a strtoll
// LineScanner per line, feeding a builder whose finalize() builds the CSR
// with two comparison sorts over the edge list, by (u, v) and by (v, u).
// It is the ground truth the single-pass graph_from_string and the
// counting-sort TaskGraphBuilder::finalize must match on every input --
// accept or reject alike, the same exception message, and an equal graph
// (tests/test_graph_io.cpp) -- and the baseline the tgs_perf graph-parse
// benchmarks measure against.
//
// TaskGraph can only be built by TaskGraphBuilder, so the frozen builder
// produces a ReferenceGraph holding the same fields in the open. Its
// reserve() is the one part not copied: the retired one trusted the
// header's counts, so a mutated header would make the test itself reserve
// gigabytes. Reserving is a capacity hint that no result depends on.
//
// Deliberately a straight copy of the retired code -- do not "optimize"
// it; its simplicity is the point.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tgs/graph/task_graph.h"

namespace tgs::reference {

struct ReferenceGraph {
  std::string name_;
  std::vector<Cost> weights_;
  std::vector<std::string> labels_;
  std::vector<std::size_t> succ_off_, pred_off_;
  std::vector<Adj> succ_, pred_;
  std::vector<NodeId> entries_, topo_;
  std::size_t num_edges_ = 0;
  Cost total_weight_ = 0;
  Cost total_edge_cost_ = 0;

  NodeId num_nodes() const { return static_cast<NodeId>(weights_.size()); }
  std::span<const Adj> children(NodeId n) const {
    return {succ_.data() + succ_off_[n], succ_off_[n + 1] - succ_off_[n]};
  }
  std::span<const Adj> parents(NodeId n) const {
    return {pred_.data() + pred_off_[n], pred_off_[n + 1] - pred_off_[n]};
  }
  std::size_t num_children(NodeId n) const {
    return succ_off_[n + 1] - succ_off_[n];
  }
  std::size_t num_parents(NodeId n) const {
    return pred_off_[n + 1] - pred_off_[n];
  }
};

class ReferenceGraphBuilder {
 public:
  explicit ReferenceGraphBuilder(std::string name = "graph")
      : name_(std::move(name)) {}

  /// The retired reserve, capped above every graph the tests and
  /// benchmarks read (100k nodes, 200k edges).
  void reserve(std::size_t nodes, std::size_t edges) {
    constexpr std::size_t kCap = std::size_t{1} << 18;
    weights_.reserve(std::min(nodes, kCap));
    labels_.reserve(std::min(nodes, kCap));
    edges_.reserve(std::min(edges, kCap));
  }

  NodeId add_node(Cost weight, std::string label = {}) {
    if (weight <= 0) throw std::invalid_argument("node weight must be positive");
    const NodeId id = static_cast<NodeId>(weights_.size());
    weights_.push_back(weight);
    if (!label.empty()) any_label_ = true;
    labels_.push_back(std::move(label));
    return id;
  }

  void add_edge(NodeId u, NodeId v, Cost cost) {
    if (u >= weights_.size() || v >= weights_.size())
      throw std::invalid_argument("edge endpoint out of range");
    if (u == v) throw std::invalid_argument("self loop");
    if (cost < 0) throw std::invalid_argument("edge cost must be >= 0");
    edges_.push_back({u, v, cost});
  }

  ReferenceGraph finalize() {
    const NodeId n = static_cast<NodeId>(weights_.size());
    ReferenceGraph g;
    g.name_ = std::move(name_);
    g.weights_ = std::move(weights_);
    if (any_label_) {
      g.labels_ = std::move(labels_);
// GCC 12 reports a false -Wrestrict inside the inlined operator+ here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
      for (NodeId i = 0; i < n; ++i)
        if (g.labels_[i].empty()) g.labels_[i] = "n" + std::to_string(i + 1);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    }

    // Detect duplicate edges.
    std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
      return a.u != b.u ? a.u < b.u : a.v < b.v;
    });
    for (std::size_t i = 1; i < edges_.size(); ++i)
      if (edges_[i].u == edges_[i - 1].u && edges_[i].v == edges_[i - 1].v)
        throw std::invalid_argument("duplicate edge");

    // CSR construction (succ: already sorted by (u, v)).
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
    {
      std::vector<std::size_t> pos(g.succ_off_.begin(), g.succ_off_.end() - 1);
      for (const Edge& e : edges_) g.succ_[pos[e.u]++] = {e.v, e.cost};
    }
    {
      // Re-sort by (v, u) for pred CSR.
      std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
        return a.v != b.v ? a.v < b.v : a.u < b.u;
      });
      std::vector<std::size_t> pos(g.pred_off_.begin(), g.pred_off_.end() - 1);
      for (const Edge& e : edges_) g.pred_[pos[e.v]++] = {e.u, e.cost};
    }
    g.num_edges_ = edges_.size();
    for (Cost w : g.weights_) g.total_weight_ += w;
    for (const Edge& e : edges_) g.total_edge_cost_ += e.cost;

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

// strtoll-based field scanner over one line. istringstream-per-line costs a
// heap-backed stream object and locale-aware extraction per record, which at
// giant-tier sizes (100k nodes / 200k+ edges) dominates read_graph; this
// cursor touches each byte once.
struct LineScanner {
  const char* p;
  const std::string& line;

  explicit LineScanner(const std::string& l) : p(l.c_str()), line(l) {}

  void skip_ws() {
    while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  }

  bool at_end() {
    skip_ws();
    return *p == '\0';
  }

  /// Next whitespace-delimited token, empty when the line is exhausted.
  std::string token() {
    skip_ws();
    const char* start = p;
    while (*p != '\0' && *p != ' ' && *p != '\t' && *p != '\r') ++p;
    return std::string(start, p);
  }

  /// Next signed 64-bit integer; throws with `what` context on malformed or
  /// out-of-range fields (ERANGE from strtoll, not a silent wrap).
  std::int64_t int64(const char* what) {
    skip_ws();
    errno = 0;
    char* end = nullptr;
    const long long x = std::strtoll(p, &end, 10);
    if (end == p || errno == ERANGE)
      throw std::invalid_argument(std::string("bad ") + what +
                                  " line: " + line);
    p = end;
    return x;
  }

  /// int64 narrowed to NodeId with an explicit range check: a node id that
  /// does not fit NodeId is a corrupt/hostile stream, never a wraparound.
  NodeId node_id(const char* what) {
    const std::int64_t x = int64(what);
    if (x < 0 || x > static_cast<std::int64_t>(kNoNode - 1))
      throw std::invalid_argument(std::string("bad ") + what +
                                  " line (id out of range): " + line);
    return static_cast<NodeId>(x);
  }
};

inline ReferenceGraph read_graph(std::istream& is) {
  std::string line;
  std::string magic, name;
  NodeId n = 0;
  std::size_t m = 0;
  // Header (skipping comments/blank lines). Counts are parsed as 64-bit and
  // validated before narrowing so a giant (or corrupt) header fails loudly.
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    LineScanner hs(line);
    magic = hs.token();
    if (magic != "tgs1") throw std::invalid_argument("bad tgs1 header: " + line);
    name = hs.token();
    if (name.empty()) throw std::invalid_argument("bad tgs1 header: " + line);
    const std::int64_t n64 = hs.int64("tgs1 header");
    const std::int64_t m64 = hs.int64("tgs1 header");
    if (n64 < 0 || n64 > static_cast<std::int64_t>(kNoNode - 1) || m64 < 0)
      throw std::invalid_argument("bad tgs1 header (counts): " + line);
    n = static_cast<NodeId>(n64);
    m = static_cast<std::size_t>(m64);
    break;
  }
  if (magic != "tgs1") throw std::invalid_argument("missing tgs1 header");

  ReferenceGraphBuilder b(name);
  b.reserve(n, m);
  NodeId nodes_seen = 0;
  std::size_t edges_seen = 0;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    LineScanner ls(line);
    const std::string kind = ls.token();
    if (kind == "node") {
      const NodeId id = ls.node_id("node");
      const Cost w = ls.int64("node");
      const std::string label = ls.token();  // optional
      if (id != nodes_seen)
        throw std::invalid_argument("node ids must be dense and in order");
      b.add_node(w, label);
      ++nodes_seen;
    } else if (kind == "edge") {
      const NodeId u = ls.node_id("edge");
      const NodeId v = ls.node_id("edge");
      const Cost c = ls.int64("edge");
      b.add_edge(u, v, c);
      ++edges_seen;
    } else {
      throw std::invalid_argument("unknown record: " + line);
    }
    if (nodes_seen == n && edges_seen == m) break;
  }
  if (nodes_seen != n || edges_seen != m)
    throw std::invalid_argument("truncated tgs1 stream");
  return b.finalize();
}

inline ReferenceGraph graph_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_graph(is);
}

}  // namespace tgs::reference
