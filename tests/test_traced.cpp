// Tests for the traced-application DAG generators (paper §5.5).
#include <gtest/gtest.h>

#include "oracles.h"
#include "tgs/gen/traced.h"
#include "tgs/graph/attributes.h"
#include "tgs/graph/graph_io.h"

namespace tgs {
namespace {

TEST(Cholesky, NodeCountIsTriangular) {
  // v = N(N+1)/2: N cdiv tasks + N(N-1)/2 cmod tasks.
  for (int n : {1, 2, 5, 10, 20}) {
    const TaskGraph g = cholesky_graph(n);
    EXPECT_EQ(g.num_nodes(), static_cast<NodeId>(n * (n + 1) / 2)) << n;
  }
}

TEST(Cholesky, SizeIsQuadraticInDimension) {
  // Paper: "for a matrix dimension of N, the graph size is O(N^2)".
  const auto v = [](int n) { return cholesky_graph(n).num_nodes(); };
  EXPECT_NEAR(static_cast<double>(v(40)) / v(20), 4.0, 0.15);
}

TEST(Cholesky, SingleEntrySingleExit) {
  const TaskGraph g = cholesky_graph(8);
  // cdiv(1) is the only entry; cdiv(8) the only exit.
  ASSERT_EQ(g.entry_nodes().size(), 1u);
  EXPECT_EQ(g.label(g.entry_nodes()[0]), "cdiv(1)");
  ASSERT_EQ(exit_nodes(g).size(), 1u);
  EXPECT_EQ(g.label(exit_nodes(g)[0]), "cdiv(8)");
}

TEST(Cholesky, DependenceStructure) {
  const TaskGraph g = cholesky_graph(4);
  auto find = [&g](const std::string& label) {
    for (NodeId n = 0; n < g.num_nodes(); ++n)
      if (g.label(n) == label) return n;
    ADD_FAILURE() << "missing " << label;
    return kNoNode;
  };
  // cdiv(1) -> cmod(j,1) for j = 2..4.
  for (int j = 2; j <= 4; ++j)
    EXPECT_TRUE(has_edge(g, find("cdiv(1)"),
                           find("cmod(" + std::to_string(j) + ",1)")));
  // Serialized updates of column 4: cmod(4,1) -> cmod(4,2) -> cmod(4,3).
  EXPECT_TRUE(has_edge(g, find("cmod(4,1)"), find("cmod(4,2)")));
  EXPECT_TRUE(has_edge(g, find("cmod(4,2)"), find("cmod(4,3)")));
  // Column completion: cmod(k+1,k) -> cdiv(k+1).
  EXPECT_TRUE(has_edge(g, find("cmod(2,1)"), find("cdiv(2)")));
  EXPECT_TRUE(has_edge(g, find("cmod(4,3)"), find("cdiv(4)")));
  // No reversed or skip dependences.
  EXPECT_FALSE(has_edge(g, find("cdiv(2)"), find("cdiv(1)")));
  EXPECT_FALSE(has_edge(g, find("cdiv(1)"), find("cdiv(3)")));
}

TEST(Cholesky, CommScaleSweepsCcr) {
  const double low = cholesky_graph(12, 0.1).ccr();
  const double mid = cholesky_graph(12, 1.0).ccr();
  const double high = cholesky_graph(12, 10.0).ccr();
  EXPECT_LT(low, mid);
  EXPECT_LT(mid, high);
  EXPECT_GT(high / low, 10.0);
}

TEST(Cholesky, Deterministic) {
  EXPECT_EQ(graph_to_string(cholesky_graph(10, 2.0)),
            graph_to_string(cholesky_graph(10, 2.0)));
}

TEST(Gauss, StructureAndSize) {
  const TaskGraph g = gaussian_elimination_graph(6);
  // (n-1) piv + sum_{k=1}^{n-1}(n-k) upd = 5 + 15 = 20.
  EXPECT_EQ(g.num_nodes(), 20u);
  ASSERT_EQ(g.entry_nodes().size(), 1u);
  EXPECT_EQ(g.label(g.entry_nodes()[0]), "piv(1)");
}

TEST(Gauss, CriticalPathGrowsWithN) {
  EXPECT_LT(critical_path_length(gaussian_elimination_graph(6)),
            critical_path_length(gaussian_elimination_graph(12)));
}

TEST(Fft, ButterflyShape) {
  const TaskGraph g = fft_graph(8);
  // log2(8)=3 ranks x 4 butterflies.
  EXPECT_EQ(g.num_nodes(), 12u);
  // Every non-final butterfly feeds exactly two next-rank tasks (or one if
  // both outputs land in the same pair -- impossible for radix-2).
  for (NodeId n = 0; n < 8; ++n) EXPECT_EQ(g.num_children(n), 2u);
  // Last rank: exits.
  for (NodeId n = 8; n < 12; ++n) EXPECT_EQ(g.num_children(n), 0u);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(fft_graph(12), std::invalid_argument);
  EXPECT_THROW(fft_graph(1), std::invalid_argument);
}

TEST(Fft, WidthIsNOver2) {
  EXPECT_EQ(layered_width(fft_graph(16)), 8u);
}

TEST(Laplace, GridShape) {
  const TaskGraph g = laplace_graph(4, 3);
  EXPECT_EQ(g.num_nodes(), 48u);
  // Interior point has 5 children (self + 4 neighbours) in the next sweep.
  // Node (t=0, i=1, j=1) has id 5.
  EXPECT_EQ(g.num_children(5), 5u);
  // Corner point has 3.
  EXPECT_EQ(g.num_children(0), 3u);
  // Last sweep: exits.
  for (NodeId n = 32; n < 48; ++n) EXPECT_EQ(g.num_children(n), 0u);
}

}  // namespace
}  // namespace tgs
