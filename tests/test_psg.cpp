// Tests for the peer-set graph suite (paper §5.1).
#include <gtest/gtest.h>

#include "oracles.h"
#include "tgs/gen/psg.h"
#include "tgs/graph/attributes.h"
#include "tgs/graph/graph_io.h"

namespace tgs {
namespace {

TEST(Psg, SuiteHasSevenSmallGraphs) {
  const auto suite = peer_set_graphs();
  ASSERT_EQ(suite.size(), 7u);
  for (const auto& e : suite) {
    EXPECT_GE(e.graph.num_nodes(), 8u);
    EXPECT_LE(e.graph.num_nodes(), 31u);  // "small in size"
    EXPECT_FALSE(e.description.empty());
  }
}

TEST(Psg, Canonical9Identity) {
  const TaskGraph g = psg_canonical9();
  EXPECT_EQ(g.num_nodes(), 9u);
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_EQ(critical_path_length(g), 23);
  EXPECT_EQ(g.label(0), "n1");
  EXPECT_EQ(g.label(8), "n9");
}

TEST(Psg, Irregular13Acyclic) {
  const TaskGraph g = psg_irregular13();
  EXPECT_EQ(g.num_nodes(), 13u);
  EXPECT_EQ(g.topological_order().size(), 13u);
  EXPECT_EQ(g.entry_nodes().size(), 1u);
  EXPECT_EQ(exit_nodes(g).size(), 1u);
}

TEST(Psg, Pipelines16HasCrossLinks) {
  const TaskGraph g = psg_pipelines16();
  EXPECT_EQ(g.num_nodes(), 16u);
  // The long bypass message src -> sink exists.
  bool found = false;
  for (const Adj& c : g.children(0))
    if (g.label(c.node) == "sink" && c.cost == 30) found = true;
  EXPECT_TRUE(found);
}

TEST(Psg, AllSerializable) {
  for (const auto& e : peer_set_graphs()) {
    const TaskGraph copy = graph_from_string(graph_to_string(e.graph));
    EXPECT_EQ(copy.num_nodes(), e.graph.num_nodes());
    EXPECT_EQ(copy.num_edges(), e.graph.num_edges());
  }
}

}  // namespace
}  // namespace tgs
