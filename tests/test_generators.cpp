// Tests for the benchmark-graph generators (paper §5): parameter fidelity,
// structural invariants, determinism, and the RGPOS optimality plant.
#include <gtest/gtest.h>

#include <cmath>

#include "fixture_graphs.h"
#include "oracles.h"
#include "tgs/gen/random_core.h"
#include "tgs/gen/rgbos.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/rgpos.h"
#include "tgs/gen/structured.h"
#include "tgs/graph/attributes.h"
#include "tgs/graph/graph_io.h"
#include "tgs/sched/schedule.h"
#include "tgs/sched/validate.h"

namespace tgs {
namespace {

TEST(RandomCore, NodeCountAndWeights) {
  RandomDagParams p;
  p.num_nodes = 80;
  p.seed = 3;
  const TaskGraph g = random_fanout_dag(p);
  EXPECT_EQ(g.num_nodes(), 80u);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_GE(g.weight(n), 2);
    EXPECT_LE(g.weight(n), 78);
  }
}

TEST(RandomCore, Deterministic) {
  RandomDagParams p;
  p.num_nodes = 60;
  p.seed = 17;
  const TaskGraph a = random_fanout_dag(p);
  const TaskGraph b = random_fanout_dag(p);
  EXPECT_EQ(graph_to_string(a), graph_to_string(b));
}

TEST(RandomCore, SeedChangesGraph) {
  RandomDagParams p;
  p.num_nodes = 60;
  p.seed = 17;
  const TaskGraph a = random_fanout_dag(p);
  p.seed = 18;
  const TaskGraph b = random_fanout_dag(p);
  EXPECT_NE(graph_to_string(a), graph_to_string(b));
}

TEST(RandomCore, CcrRoughlyHonored) {
  for (double ccr : {0.1, 1.0, 10.0}) {
    RandomDagParams p;
    p.num_nodes = 200;
    p.ccr = ccr;
    p.seed = 5;
    const TaskGraph g = random_fanout_dag(p);
    EXPECT_GT(g.ccr(), ccr * 0.5) << "target " << ccr;
    EXPECT_LT(g.ccr(), ccr * 2.0) << "target " << ccr;
  }
}

TEST(RandomCore, FanoutMeanRoughlyHonored) {
  RandomDagParams p;
  p.num_nodes = 200;
  p.seed = 9;
  const TaskGraph g = random_fanout_dag(p);
  // Mean fan-out target = v/10 = 20, truncated near the tail of the node
  // ordering, so expect somewhere in [8, 20] per node on average.
  const double mean_fanout =
      static_cast<double>(g.num_edges()) / g.num_nodes();
  EXPECT_GT(mean_fanout, 8.0);
  EXPECT_LT(mean_fanout, 20.0);
}

TEST(Rgbos, SuiteShape) {
  std::size_t graphs = 0;
  for (NodeId v = kRgbosMinNodes; v <= kRgbosMaxNodes; v += kRgbosStep) {
    EXPECT_EQ(rgbos_graph(1.0, v, 42).num_nodes(), v);
    ++graphs;
  }
  EXPECT_EQ(graphs, 12u);  // 10..32 step 2
}

TEST(Rgbos, DeterministicPerCell) {
  const TaskGraph a = rgbos_graph(10.0, 24, 42);
  const TaskGraph b = rgbos_graph(10.0, 24, 42);
  EXPECT_EQ(graph_to_string(a), graph_to_string(b));
  const TaskGraph c = rgbos_graph(1.0, 24, 42);
  EXPECT_NE(graph_to_string(a), graph_to_string(c));
}

TEST(Rgnos, WidthTracksParallelism) {
  // Width target = parallelism * sqrt(v). Generated layer sizes are drawn
  // around it; check the measured width is monotone-ish in the knob.
  RgnosParams p;
  p.num_nodes = 400;
  p.seed = 7;
  p.parallelism = 1;
  const std::size_t w1 = layered_width(rgnos_graph(p));
  p.parallelism = 5;
  const std::size_t w5 = layered_width(rgnos_graph(p));
  EXPECT_LT(w1, w5);
  EXPECT_GT(w5, 3 * std::sqrt(400.0));
}

TEST(Rgnos, EveryNonEntryNodeHasParent) {
  RgnosParams p;
  p.num_nodes = 120;
  p.seed = 23;
  const TaskGraph g = rgnos_graph(p);
  // Spine edges guarantee: only layer-0 nodes are entries.
  std::size_t entries = g.entry_nodes().size();
  EXPECT_LT(entries, g.num_nodes() / 2);
  for (NodeId n : g.entry_nodes()) EXPECT_EQ(g.num_parents(n), 0u);
}

TEST(Rgpos, PlantedScheduleIsValidAndTight) {
  RgposParams p;
  p.num_nodes = 60;
  p.num_procs = 4;
  p.ccr = 1.0;
  p.seed = 31;
  const RgposGraph r = rgpos_graph(p);
  EXPECT_EQ(r.graph.num_nodes(), 60u);
  // Materialize the planted schedule and validate it.
  Schedule s(r.graph, r.num_procs);
  for (NodeId n = 0; n < r.graph.num_nodes(); ++n)
    s.place(n, r.planted_proc[n], r.planted_start[n]);
  const auto v = validate_schedule(s, r.num_procs);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(s.makespan(), r.optimal_length);
}

TEST(Rgpos, NoIdleTimePlanted) {
  RgposParams p;
  p.num_nodes = 40;
  p.num_procs = 3;
  p.seed = 8;
  const RgposGraph r = rgpos_graph(p);
  // Total work = p * L_opt exactly (no idle time on any processor).
  EXPECT_EQ(r.graph.total_weight(),
            static_cast<Cost>(r.num_procs) * r.optimal_length);
}

TEST(Rgpos, OptimalIsLowerBoundForPProcs) {
  RgposParams p;
  p.num_nodes = 50;
  p.num_procs = 4;
  p.seed = 12;
  const RgposGraph r = rgpos_graph(p);
  // ceil(work / p) == L_opt: no schedule on p processors can beat it.
  const Time lb = (r.graph.total_weight() + r.num_procs - 1) / r.num_procs;
  EXPECT_EQ(lb, r.optimal_length);
}

TEST(Rgpos, WidthGuardPlantStaysValid) {
  RgposParams p;
  p.num_nodes = 60;
  p.num_procs = 4;
  p.ccr = 1.0;
  p.seed = 31;
  p.width_guard = true;
  const RgposGraph r = rgpos_graph(p);
  Schedule s(r.graph, r.num_procs);
  for (NodeId n = 0; n < r.graph.num_nodes(); ++n)
    s.place(n, r.planted_proc[n], r.planted_start[n]);
  const auto v = validate_schedule(s, r.num_procs);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(s.makespan(), r.optimal_length);
}

TEST(Rgpos, WidthGuardBoundsTheWidth) {
  RgposParams p;
  p.num_nodes = 80;
  p.num_procs = 4;
  p.seed = 5;
  p.width_guard = true;
  const RgposGraph r = rgpos_graph(p);
  // Chain cover of size p => max antichain <= p (Dilworth); the layered
  // width over-counts antichains only when layers merge incomparable
  // nodes, so <= p here is a strict structural check.
  EXPECT_LE(layered_width(r.graph), static_cast<std::size_t>(p.num_procs));
  // Without the guard the same instance is much wider.
  p.width_guard = false;
  EXPECT_GT(layered_width(rgpos_graph(p).graph),
            static_cast<std::size_t>(p.num_procs));
}

TEST(Rgpos, WidthGuardMakesPlantUniversal) {
  // On guarded instances no algorithm -- bounded or not -- may beat L_opt.
  RgposParams p;
  p.num_nodes = 50;
  p.num_procs = 3;
  p.ccr = 1.0;
  p.seed = 77;
  p.width_guard = true;
  const RgposGraph r = rgpos_graph(p);
  const Time lb = r.optimal_length;
  // Work / width bound argument: total weight == p * L_opt and width <= p.
  EXPECT_EQ(r.graph.total_weight(), static_cast<Cost>(p.num_procs) * lb);
}

TEST(Rgpos, SuiteShape) {
  const auto suite = rgpos_suite(0.1, 4, 77);
  ASSERT_EQ(suite.size(), 10u);
  NodeId v = 50;
  for (const auto& r : suite) {
    EXPECT_EQ(r.graph.num_nodes(), v);
    v += 50;
  }
}

TEST(Rgpos, CrossEdgesRespectSlack) {
  RgposParams p;
  p.num_nodes = 80;
  p.num_procs = 4;
  p.ccr = 10.0;  // tempt the generator with big comm costs
  p.seed = 19;
  const RgposGraph r = rgpos_graph(p);
  for (NodeId u = 0; u < r.graph.num_nodes(); ++u) {
    const Time ft_u = r.planted_start[u] + r.graph.weight(u);
    for (const Adj& e : r.graph.children(u)) {
      if (r.planted_proc[u] != r.planted_proc[e.node])
        EXPECT_LE(ft_u + e.cost, r.planted_start[e.node]);
      else
        EXPECT_LE(ft_u, r.planted_start[e.node]);
    }
  }
}

TEST(Structured, Shapes) {
  EXPECT_EQ(chain_graph(5).num_nodes(), 5u);
  EXPECT_EQ(chain_graph(5).num_edges(), 4u);
  EXPECT_EQ(fork_join(6).num_nodes(), 8u);
  EXPECT_EQ(fork_join(6).num_edges(), 12u);
  EXPECT_EQ(out_tree(3, 2).num_nodes(), 15u);
  EXPECT_EQ(in_tree(3, 2).num_nodes(), 15u);
  EXPECT_EQ(exit_nodes(in_tree(3, 2)).size(), 1u);
  EXPECT_EQ(out_tree(3, 2).entry_nodes().size(), 1u);
  EXPECT_EQ(diamond_lattice(4).num_nodes(), 16u);
  EXPECT_EQ(diamond_lattice(4).num_edges(), 24u);
  EXPECT_EQ(independent_tasks(7).num_edges(), 0u);
}

}  // namespace
}  // namespace tgs
