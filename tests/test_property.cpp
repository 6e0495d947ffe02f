// Property-based sweeps (parameterized gtest): every algorithm, over a
// grid of random graphs, must produce valid, deterministic schedules whose
// lengths respect universal bounds.
#include <gtest/gtest.h>

#include <tuple>

#include "oracles.h"
#include "tgs/gen/rgnos.h"
#include "tgs/graph/attributes.h"
#include "tgs/harness/registry.h"
#include "tgs/net/net_validate.h"
#include "tgs/sched/metrics.h"
#include "tgs/sched/validate.h"

namespace tgs {
namespace {

TaskGraph graph_for(std::uint64_t seed, double ccr, int parallelism) {
  RgnosParams p;
  p.num_nodes = 60;
  p.ccr = ccr;
  p.parallelism = parallelism;
  p.seed = seed;
  return rgnos_graph(p);
}

// ---------------------------------------------------------------------------
// BNP + UNC properties.
using SchedParam = std::tuple<std::string, std::uint64_t, double>;

class SchedulerProperty : public ::testing::TestWithParam<SchedParam> {};

TEST_P(SchedulerProperty, ValidBoundedDeterministic) {
  const auto& [name, seed, ccr] = GetParam();
  const TaskGraph g = graph_for(seed, ccr, 3);
  const auto algo = make_scheduler(name);

  const Schedule s = algo->run(g, {});
  const auto v = validate_schedule(s);
  ASSERT_TRUE(v.ok) << v.error;

  // Universal bounds: comp-CP <= makespan <= serial + all comm.
  EXPECT_GE(s.makespan(), computation_critical_path_length(g));
  EXPECT_LE(s.makespan(), g.total_weight() + total_edge_cost(g));

  // NSL >= 1 (the denominator is a valid lower bound).
  EXPECT_GE(normalized_schedule_length(g, s.makespan()), 1.0);

  // Determinism: bit-identical on re-run.
  const Schedule s2 = algo->run(g, {});
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    ASSERT_EQ(s.proc(n), s2.proc(n));
    ASSERT_EQ(s.start(n), s2.start(n));
  }
}

TEST_P(SchedulerProperty, RespectsProcessorBound) {
  const auto& [name, seed, ccr] = GetParam();
  const TaskGraph g = graph_for(seed ^ 0x5A5A, ccr, 4);
  const auto algo = make_scheduler(name);
  if (algo->algo_class() == AlgoClass::kUNC) {
    GTEST_SKIP() << "UNC algorithms are unbounded by definition";
  }
  SchedOptions opt;
  opt.num_procs = 3;
  const Schedule s = algo->run(g, opt);
  const auto v = validate_schedule(s, 3);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_LE(s.procs_used(), 3);
  EXPECT_GE(s.makespan(), schedule_length_lower_bound(g, 3));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SchedulerProperty,
    ::testing::Combine(
        ::testing::Values("HLFET", "ISH", "MCP", "ETF", "DLS", "LAST", "EZ",
                          "LC", "DSC", "MD", "DCP"),
        ::testing::Values(101ull, 202ull, 303ull),
        ::testing::Values(0.1, 1.0, 10.0)),
    [](const ::testing::TestParamInfo<SchedParam>& info) {
      const std::string& name = std::get<0>(info.param);
      const double ccr = std::get<2>(info.param);
      std::string ccr_tag = ccr < 1 ? "ccrLow" : (ccr > 1 ? "ccrHigh" : "ccrMid");
      return name + "_s" + std::to_string(std::get<1>(info.param)) + "_" + ccr_tag;
    });

// ---------------------------------------------------------------------------
// APN properties.
using ApnParam = std::tuple<std::string, std::string, std::uint64_t>;

Topology topo_by_name(const std::string& name) {
  if (name == "ring") return Topology::ring(8);
  if (name == "mesh") return Topology::mesh(2, 4);
  if (name == "hcube") return Topology::hypercube(3);
  return Topology::fully_connected(8);
}

class ApnProperty : public ::testing::TestWithParam<ApnParam> {};

TEST_P(ApnProperty, ValidBoundedDeterministic) {
  const auto& [algo_name, topo_name, seed] = GetParam();
  const TaskGraph g = graph_for(seed, 1.0, 3);
  const Topology topo = topo_by_name(topo_name);
  const RoutingTable routes(topo);
  const auto algo = make_apn_scheduler(algo_name);

  const NetSchedule ns = algo->run(g, routes);
  const auto v = validate_net_schedule(ns);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_GE(ns.makespan(), computation_critical_path_length(g));

  const NetSchedule ns2 = algo->run(g, routes);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    ASSERT_EQ(ns.tasks().proc(n), ns2.tasks().proc(n));
    ASSERT_EQ(ns.tasks().start(n), ns2.tasks().start(n));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApn, ApnProperty,
    ::testing::Combine(::testing::Values("MH", "DLS-APN", "BU", "BSA"),
                       ::testing::Values("ring", "mesh", "hcube", "clique"),
                       ::testing::Values(11ull, 22ull)),
    [](const ::testing::TestParamInfo<ApnParam>& info) {
      std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param) +
                         "_s" + std::to_string(std::get<2>(info.param));
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

}  // namespace
}  // namespace tgs
