// Unit tests for graph/task_graph.h: builder validation, CSR adjacency,
// topological order, serialization round-trip, DOT export.
#include <gtest/gtest.h>

#include <sstream>

#include "oracles.h"
#include "tgs/gen/psg.h"
#include "tgs/graph/dot.h"
#include "tgs/graph/graph_io.h"
#include "tgs/graph/task_graph.h"

namespace tgs {
namespace {

TaskGraph small_graph() {
  TaskGraphBuilder b("small");
  const NodeId a = b.add_node(2, "a");
  const NodeId c = b.add_node(3, "c");
  const NodeId d = b.add_node(4, "d");
  b.add_edge(a, c, 5);
  b.add_edge(a, d, 1);
  b.add_edge(c, d, 7);
  return b.finalize();
}

TEST(TaskGraphBuilder, BasicConstruction) {
  const TaskGraph g = small_graph();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.weight(0), 2);
  EXPECT_EQ(g.total_weight(), 9);
  EXPECT_EQ(total_edge_cost(g), 13);
  EXPECT_EQ(g.name(), "small");
}

TEST(TaskGraphBuilder, AdjacencyBothDirections) {
  const TaskGraph g = small_graph();
  ASSERT_EQ(g.children(0).size(), 2u);
  EXPECT_EQ(g.children(0)[0].node, 1u);
  EXPECT_EQ(g.children(0)[0].cost, 5);
  EXPECT_EQ(g.children(0)[1].node, 2u);
  ASSERT_EQ(g.parents(2).size(), 2u);
  EXPECT_EQ(g.parents(2)[0].node, 0u);
  EXPECT_EQ(g.parents(2)[1].node, 1u);
  EXPECT_EQ(g.parents(2)[1].cost, 7);
}

TEST(TaskGraphBuilder, EdgeCostLookup) {
  const TaskGraph g = small_graph();
  EXPECT_EQ(g.edge_cost(0, 1), 5);
  EXPECT_EQ(g.edge_cost(1, 2), 7);
  EXPECT_EQ(g.edge_cost(2, 0), TaskGraph::kNoEdge);
  EXPECT_TRUE(has_edge(g, 0, 2));
  EXPECT_FALSE(has_edge(g, 2, 1));
}

TEST(TaskGraphBuilder, EntriesAndExits) {
  const TaskGraph g = small_graph();
  ASSERT_EQ(g.entry_nodes().size(), 1u);
  EXPECT_EQ(g.entry_nodes()[0], 0u);
  ASSERT_EQ(exit_nodes(g).size(), 1u);
  EXPECT_EQ(exit_nodes(g)[0], 2u);
}

TEST(TaskGraphBuilder, TopologicalOrderRespectsEdges) {
  const TaskGraph g = small_graph();
  const auto& topo = g.topological_order();
  ASSERT_EQ(topo.size(), 3u);
  std::vector<std::size_t> pos(3);
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adj& c : g.children(u)) EXPECT_LT(pos[u], pos[c.node]);
}

TEST(TaskGraphBuilder, RejectsCycle) {
  TaskGraphBuilder b;
  const NodeId x = b.add_node(1);
  const NodeId y = b.add_node(1);
  b.add_edge(x, y, 0);
  b.add_edge(y, x, 0);
  EXPECT_THROW(b.finalize(), std::invalid_argument);
}

TEST(TaskGraphBuilder, RejectsSelfLoop) {
  TaskGraphBuilder b;
  const NodeId x = b.add_node(1);
  EXPECT_THROW(b.add_edge(x, x, 0), std::invalid_argument);
}

TEST(TaskGraphBuilder, RejectsDuplicateEdge) {
  TaskGraphBuilder b;
  const NodeId x = b.add_node(1);
  const NodeId y = b.add_node(1);
  b.add_edge(x, y, 1);
  b.add_edge(x, y, 2);
  EXPECT_THROW(b.finalize(), std::invalid_argument);
}

TEST(TaskGraphBuilder, RejectsNonPositiveWeight) {
  TaskGraphBuilder b;
  EXPECT_THROW(b.add_node(0), std::invalid_argument);
  EXPECT_THROW(b.add_node(-3), std::invalid_argument);
}

TEST(TaskGraphBuilder, RejectsNegativeEdgeCost) {
  TaskGraphBuilder b;
  const NodeId x = b.add_node(1);
  const NodeId y = b.add_node(1);
  EXPECT_THROW(b.add_edge(x, y, -1), std::invalid_argument);
}

TEST(TaskGraphBuilder, RejectsOutOfRangeEndpoint) {
  TaskGraphBuilder b;
  b.add_node(1);
  EXPECT_THROW(b.add_edge(0, 5, 1), std::invalid_argument);
}

TEST(TaskGraphBuilder, ZeroCostEdgeAllowed) {
  TaskGraphBuilder b;
  const NodeId x = b.add_node(1);
  const NodeId y = b.add_node(1);
  b.add_edge(x, y, 0);
  const TaskGraph g = b.finalize();
  EXPECT_EQ(g.edge_cost(0, 1), 0);
}

TEST(TaskGraph, CcrComputation) {
  const TaskGraph g = small_graph();
  // avg comm = 13/3, avg comp = 9/3 -> ccr = 13/9.
  EXPECT_NEAR(g.ccr(), 13.0 / 9.0, 1e-12);
}

TEST(TaskGraph, LabelsPreserved) {
  const TaskGraph g = small_graph();
  ASSERT_TRUE(g.has_labels());
  EXPECT_EQ(g.label(0), "a");
  EXPECT_EQ(g.label(2), "d");
}

TEST(GraphIo, RoundTrip) {
  const TaskGraph g = psg_canonical9();
  const std::string text = graph_to_string(g);
  const TaskGraph h = graph_from_string(text);
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(h.weight(n), g.weight(n));
    EXPECT_EQ(h.label(n), g.label(n));
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adj& c : g.children(u))
      EXPECT_EQ(h.edge_cost(u, c.node), c.cost);
}

TEST(GraphIo, RejectsMalformed) {
  EXPECT_THROW(graph_from_string("not a graph"), std::invalid_argument);
  EXPECT_THROW(graph_from_string("tgs1 g 2 0\nnode 1 5\n"),
               std::invalid_argument);  // non-dense ids
  EXPECT_THROW(graph_from_string("tgs1 g 1 1\nnode 0 5\n"),
               std::invalid_argument);  // truncated (missing edge)
}

TEST(GraphIo, CommentsSkipped) {
  const TaskGraph g = graph_from_string(
      "# comment\ntgs1 mini 2 1\nnode 0 4\n# mid\nnode 1 6\nedge 0 1 3\n");
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.edge_cost(0, 1), 3);
}

TEST(Dot, ContainsNodesAndEdges) {
  const TaskGraph g = small_graph();
  const std::string dot = to_dot(g, {0, 2});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("0 -> 1"), std::string::npos);
  EXPECT_NE(dot.find("lightcoral"), std::string::npos);
}

TEST(TaskGraph, EmptyGraph) {
  TaskGraphBuilder b("empty");
  const TaskGraph g = b.finalize();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.topological_order().empty());
}

}  // namespace
}  // namespace tgs
