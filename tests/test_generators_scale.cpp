// Giant-graph tier generator tests: the scale paths must emit VALID DAGs
// at node counts two orders of magnitude past the paper's 500, in
// near-linear time, without 32-bit overflow. Sizes here are big enough to
// catch quadratic blowups (a test that suddenly takes minutes is the
// regression signal) yet small enough for tier-1 (< a second each).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "oracles.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/rgpos.h"
#include "tgs/gen/traced.h"
#include "tgs/graph/attributes.h"
#include "tgs/graph/graph_io.h"
#include "tgs/util/cli.h"

namespace tgs {
namespace {

/// Structural validity: builder-enforced acyclicity shows up as a full
/// topological order; spot-check edge direction and reachability basics.
void expect_valid_dag(const TaskGraph& g) {
  ASSERT_EQ(g.topological_order().size(), g.num_nodes());
  std::vector<NodeId> pos(g.num_nodes());
  for (NodeId i = 0; i < g.num_nodes(); ++i) pos[g.topological_order()[i]] = i;
  std::size_t edges = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Adj& c : g.children(u)) {
      EXPECT_LT(pos[u], pos[c.node]);  // parents precede children
      ++edges;
    }
  }
  EXPECT_EQ(edges, g.num_edges());
  EXPECT_FALSE(g.entry_nodes().empty());
  EXPECT_FALSE(exit_nodes(g).empty());
}

TEST(GiantTraced, Cholesky100kIsValidAndLinearSized) {
  // dim 446 -> v = 99681: the acceptance-tier graph.
  const TaskGraph g = cholesky_graph(446, 1.0);
  EXPECT_EQ(g.num_nodes(), 99681u);
  EXPECT_EQ(g.num_edges(), static_cast<std::size_t>(446) * 445);
  expect_valid_dag(g);
  // Weights stay positive and path sums stay well inside 64-bit Time.
  EXPECT_GT(g.total_weight(), 0);
  EXPECT_LT(g.total_weight(), kTimeInf / 1024);
}

TEST(GiantTraced, Fft64kIsValid) {
  const TaskGraph g = fft_graph(8192, 1.0);
  EXPECT_EQ(g.num_nodes(), 13u * 4096u);  // log2(8192) ranks x n/2
  expect_valid_dag(g);
}

TEST(GiantRgnos, ScalePathIsLinearAndConnectedEnough) {
  RgnosParams params;
  params.num_nodes = 50000;
  params.ccr = 1.0;
  params.parallelism = 3;
  params.max_fanout = 8;  // scale path: O(v * max_fanout) edges
  params.seed = 7;
  const TaskGraph g = rgnos_graph(params);
  EXPECT_EQ(g.num_nodes(), 50000u);
  expect_valid_dag(g);
  // Edge count must track the fan-out cap, not the paper's v^2/10 density
  // (which would be 250M edges here).
  EXPECT_LE(g.num_edges(), static_cast<std::size_t>(50000) * (8 * 2 + 1));
  EXPECT_GE(g.num_edges(), 50000u - 1);  // at least the layer spine
  // Degree-distribution smoke: the spine guarantees every non-first-layer
  // node a parent, so isolated nodes can only be entries.
  for (NodeId n : g.entry_nodes()) EXPECT_GT(g.num_children(n) + 1, 0u);
  std::size_t isolated = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (g.num_parents(n) == 0 && g.num_children(n) == 0) ++isolated;
  EXPECT_LT(isolated, g.num_nodes() / 100);  // < 1% degenerate nodes
}

TEST(GiantRgnos, LegacyDensityIsByteIdenticalWithCapUnset) {
  RgnosParams a, b;
  a.num_nodes = b.num_nodes = 300;
  a.seed = b.seed = 42;
  b.max_fanout = 0;  // explicit legacy
  const std::string ga = graph_to_string(rgnos_graph(a));
  const std::string gb = graph_to_string(rgnos_graph(b));
  EXPECT_EQ(ga, gb);
}

TEST(GiantRgpos, ScalePathBoundsEdges) {
  RgposParams params;
  params.num_nodes = 20000;
  params.num_procs = 16;
  params.edges_per_node = 4;  // scale path
  params.seed = 3;
  const RgposGraph rg = rgpos_graph(params);
  EXPECT_EQ(rg.graph.num_nodes(), 20000u);
  expect_valid_dag(rg.graph);
  EXPECT_LE(rg.graph.num_edges(), static_cast<std::size_t>(20000) * 5);
}

TEST(GiantIo, RoundTrips50kNodeGraph) {
  const TaskGraph g = cholesky_graph(300, 1.0);  // v = 45150
  const std::string text = graph_to_string(g);
  const TaskGraph h = graph_from_string(text);
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(graph_to_string(h), text);
}

TEST(GiantIo, HeaderRejectsCorruptCounts) {
  EXPECT_THROW(graph_from_string("tgs1 g -1 0\n"), std::invalid_argument);
  EXPECT_THROW(graph_from_string("tgs1 g 99999999999999999999 0\n"),
               std::invalid_argument);
  // A node id that cannot fit NodeId must throw, never wrap.
  EXPECT_THROW(graph_from_string("tgs1 g 1 0\nnode 4294967295 5\n"),
               std::invalid_argument);
}

// Runtime counterpart of the static_asserts in util/types.h: schedule
// time arithmetic at giant scale must not wrap. A 100k-node chain of
// CCR-scaled weights sums past 2^32; Time must carry it exactly.
TEST(GiantTypes, PathSumsExceed32Bits) {
  const std::int64_t v = 100000;
  const std::int64_t per_node = 40 * 1000;  // mean weight x 10x CCR scale
  const Time path = static_cast<Time>(v) * per_node;
  EXPECT_GT(path, static_cast<Time>(std::numeric_limits<std::int32_t>::max()));
  EXPECT_LT(path, kTimeInf);          // headroom: inf still dominates
  EXPECT_LT(path + path, kTimeInf);   // survives an addition
}

TEST(GiantCli, GetIntInRejectsOutOfRangeInsteadOfTruncating) {
  const char* argv[] = {"prog", "--v=5000000000"};  // > int32, legit int64
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("v", 0), 5000000000ll);
  // A caller narrowing to NodeId range gets a loud error, not a wrap.
  EXPECT_THROW(cli.get_int_in("v", 0, 1, 1000000), std::invalid_argument);
  EXPECT_EQ(cli.get_int_in("absent", 123, 1, 10), 123);  // fallback unchecked
  const char* argv2[] = {"prog", "--v=100000"};
  Cli cli2(2, const_cast<char**>(argv2));
  EXPECT_EQ(cli2.get_int_in("v", 0, 1, 1000000), 100000);
}

}  // namespace
}  // namespace tgs
