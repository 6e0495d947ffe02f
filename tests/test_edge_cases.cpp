// Edge-case sweep: degenerate graphs and extreme parameters pushed
// through every algorithm and substrate. Anything that silently produces
// an invalid schedule here would poison the benchmark tables.
#include <gtest/gtest.h>

#include "fixture_graphs.h"
#include "oracles.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/structured.h"
#include "tgs/harness/registry.h"
#include "tgs/map/cluster_map.h"
#include "tgs/net/net_validate.h"
#include "tgs/optimal/bb_scheduler.h"
#include "tgs/sched/metrics.h"
#include "tgs/sched/schedule_io.h"
#include "tgs/sched/validate.h"

namespace tgs {
namespace {

TaskGraph single_node() {
  TaskGraphBuilder b("single");
  b.add_node(7);
  return b.finalize();
}

TaskGraph zero_comm_diamond() {
  // All-zero edge costs: co-location never matters.
  TaskGraphBuilder b("zerocomm");
  const NodeId a = b.add_node(3);
  const NodeId c = b.add_node(4);
  const NodeId d = b.add_node(5);
  const NodeId e = b.add_node(2);
  b.add_edge(a, c, 0);
  b.add_edge(a, d, 0);
  b.add_edge(c, e, 0);
  b.add_edge(d, e, 0);
  return b.finalize();
}

TaskGraph huge_comm_star() {
  // One source fanning to 8 children with comm 100x the weights.
  TaskGraphBuilder b("hugecomm");
  const NodeId src = b.add_node(1);
  for (int i = 0; i < 8; ++i) {
    const NodeId c = b.add_node(1);
    b.add_edge(src, c, 1000);
  }
  return b.finalize();
}

TEST(EdgeCases, SingleNodeAllAlgorithms) {
  const TaskGraph g = single_node();
  for (const auto& algo : make_unc_and_bnp_schedulers()) {
    const Schedule s = algo->run(g, {});
    EXPECT_TRUE(validate_schedule(s).ok) << algo->name();
    EXPECT_EQ(s.makespan(), 7) << algo->name();
    EXPECT_EQ(s.procs_used(), 1) << algo->name();
  }
  const RoutingTable routes{Topology::ring(4)};
  for (const auto& algo : make_apn_schedulers()) {
    const NetSchedule ns = algo->run(g, routes);
    EXPECT_TRUE(validate_net_schedule(ns).ok) << algo->name();
    EXPECT_EQ(ns.makespan(), 7) << algo->name();
  }
}

TEST(EdgeCases, SingleProcessorOptionForcesSerial) {
  const TaskGraph g = zero_comm_diamond();
  SchedOptions opt;
  opt.num_procs = 1;
  for (const auto& algo : make_bnp_schedulers()) {
    const Schedule s = algo->run(g, opt);
    EXPECT_TRUE(validate_schedule(s, 1).ok) << algo->name();
    EXPECT_EQ(s.makespan(), g.total_weight()) << algo->name();
  }
}

TEST(EdgeCases, ZeroCommGraphAllAlgorithms) {
  const TaskGraph g = zero_comm_diamond();
  // Optimal: a=3, then c||d (4,5), then e: 3+5+2 = 10 with 2 procs.
  for (const auto& algo : make_unc_and_bnp_schedulers()) {
    const Schedule s = algo->run(g, {});
    EXPECT_TRUE(validate_schedule(s).ok) << algo->name();
    EXPECT_GE(s.makespan(), 10) << algo->name();
    EXPECT_LE(s.makespan(), 14) << algo->name();  // never worse than serial
  }
}

TEST(EdgeCases, HugeCommStarPrefersSerial) {
  // With comm 1000x weights, spreading is catastrophic; every algorithm
  // except LC keeps the star on one processor (makespan 9, not >1000).
  // LC cannot: it peels the critical path (src -> one child) into a linear
  // cluster and by construction never merges the sibling leaves into it --
  // exactly the weakness the paper ascribes to linear clustering.
  const TaskGraph g = huge_comm_star();
  for (const auto& algo : make_unc_and_bnp_schedulers()) {
    const Schedule s = algo->run(g, {});
    EXPECT_TRUE(validate_schedule(s).ok) << algo->name();
    if (algo->name() == "LC") {
      EXPECT_GT(s.makespan(), 1000);  // pays the messages
    } else {
      EXPECT_EQ(s.makespan(), g.total_weight()) << algo->name();
    }
  }
}

TEST(EdgeCases, WideGraphUnlimitedProcs) {
  const TaskGraph g = independent_tasks(64, 3);
  for (const auto& algo : make_unc_and_bnp_schedulers()) {
    const Schedule s = algo->run(g, {});
    EXPECT_EQ(s.makespan(), 3) << algo->name();
    EXPECT_EQ(s.procs_used(), 64) << algo->name();
  }
}

TEST(EdgeCases, ApnSingleLinkBottleneck) {
  // Two processors, one link; everything serializes over it.
  const TaskGraph g = fork_join(6, 5, 20);
  const RoutingTable routes{Topology::ring(2)};
  for (const auto& algo : make_apn_schedulers()) {
    const NetSchedule ns = algo->run(g, routes);
    const auto v = validate_net_schedule(ns);
    EXPECT_TRUE(v.ok) << algo->name() << ": " << v.error;
  }
}

TEST(EdgeCases, ApnStarHubCongestion) {
  // Star topology: all traffic through the hub's links.
  RgnosParams p;
  p.num_nodes = 40;
  p.ccr = 2.0;
  p.seed = 3;
  const TaskGraph g = rgnos_graph(p);
  const RoutingTable routes{Topology::star(6)};
  for (const auto& algo : make_apn_schedulers()) {
    const NetSchedule ns = algo->run(g, routes);
    EXPECT_TRUE(validate_net_schedule(ns).ok) << algo->name();
  }
}

TEST(EdgeCases, ClusterMapOntoOneProc) {
  const TaskGraph g = zero_comm_diamond();
  const Schedule unc = make_scheduler("DSC")->run(g, {});
  const Schedule s = map_clusters_rcp(g, clusters_of(unc), 1);
  EXPECT_TRUE(validate_schedule(s, 1).ok);
  EXPECT_EQ(s.makespan(), g.total_weight());
}

TEST(EdgeCases, BranchAndBoundSingleNode) {
  const BBResult r = branch_and_bound(single_node(), {});
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 7);
}

TEST(EdgeCases, BranchAndBoundZeroComm) {
  BBOptions opt;
  opt.num_procs = 2;
  opt.num_threads = 2;
  const BBResult r = branch_and_bound(zero_comm_diamond(), opt);
  ASSERT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 10);
}

TEST(EdgeCases, MetricsOnDegenerateGraphs) {
  const TaskGraph g = single_node();
  EXPECT_DOUBLE_EQ(normalized_schedule_length(g, 7), 1.0);
  EXPECT_EQ(schedule_length_lower_bound(g, 1), 7);
  EXPECT_EQ(schedule_length_lower_bound(g, 16), 7);
}

TEST(EdgeCases, LongChainManyProcsStaysPut) {
  const TaskGraph g = chain_graph(100, 5, 9);
  for (const auto& algo : make_unc_and_bnp_schedulers()) {
    const Schedule s = algo->run(g, {});
    EXPECT_EQ(s.procs_used(), 1) << algo->name();
    EXPECT_EQ(s.makespan(), 500) << algo->name();
  }
}

TEST(EdgeCases, TwoProcsTightBound) {
  // 3 equal tasks on 2 procs: optimal 2w; all BNP algorithms achieve it.
  const TaskGraph g = independent_tasks(3, 10);
  SchedOptions opt;
  opt.num_procs = 2;
  for (const auto& algo : make_bnp_schedulers())
    EXPECT_EQ(algo->run(g, opt).makespan(), 20) << algo->name();
}

TEST(EdgeCases, ProcsBeyondNodeCountChangeNothing) {
  // A schedule never uses more processors than it has tasks, so a larger
  // request must neither change the schedule nor size anything per
  // requested processor.
  const TaskGraph g = psg_canonical9();
  const int v = static_cast<int>(g.num_nodes());
  std::vector<std::string> names = unc_names();
  for (const std::string& name : bnp_names()) names.push_back(name);
  for (const char* point : {"param:cp/static/insert", "param:tl/dynamic/hole",
                            "param:bl/etf/insert", "param:sl/dls/hole",
                            "param:alap/etf/append"})
    names.emplace_back(point);
  for (const std::string& name : names) {
    const SchedulerPtr algo = make_scheduler(name);
    SchedOptions opt;
    opt.num_procs = v;
    const std::string at_v = schedule_to_string(algo->run(g, opt));
    for (int procs : {v, v + 1, 1000000}) {
      opt.num_procs = procs;
      const Schedule s = algo->run(g, opt);
      EXPECT_EQ(schedule_to_string(s), at_v) << name << " procs=" << procs;
      EXPECT_LE(s.num_procs(), v) << name << " procs=" << procs;
    }
  }
}

}  // namespace
}  // namespace tgs
