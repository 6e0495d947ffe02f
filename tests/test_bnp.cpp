// Tests for the six BNP algorithms: validity on diverse graphs, known
// exact results on degenerate shapes, algorithm-specific behaviours.
#include <gtest/gtest.h>

#include "fixture_graphs.h"
#include "oracles.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/structured.h"
#include "tgs/graph/attributes.h"
#include "tgs/harness/registry.h"
#include "tgs/sched/metrics.h"
#include "tgs/sched/validate.h"

namespace tgs {
namespace {

std::vector<TaskGraph> small_zoo() {
  std::vector<TaskGraph> zoo;
  zoo.push_back(psg_canonical9());
  zoo.push_back(psg_irregular13());
  zoo.push_back(psg_pipelines16());
  zoo.push_back(chain_graph(6, 10, 20));
  zoo.push_back(independent_tasks(7, 10));
  zoo.push_back(fork_join(5, 10, 30));
  zoo.push_back(diamond_lattice(3, 8, 4));
  RgnosParams p;
  p.num_nodes = 70;
  p.ccr = 2.0;
  p.parallelism = 3;
  p.seed = 99;
  zoo.push_back(rgnos_graph(p));
  return zoo;
}

TEST(Bnp, AllValidOnZooUnlimitedProcs) {
  const auto zoo = small_zoo();
  for (const auto& algo : make_bnp_schedulers()) {
    for (const auto& g : zoo) {
      const Schedule s = algo->run(g, {});
      const auto v = validate_schedule(s);
      EXPECT_TRUE(v.ok) << algo->name() << " on " << g.name() << ": " << v.error;
      EXPECT_GE(s.makespan(), schedule_length_lower_bound(g, 0));
      EXPECT_LE(s.makespan(), g.total_weight() + total_edge_cost(g));
    }
  }
}

TEST(Bnp, AllValidOnZooTwoProcs) {
  const auto zoo = small_zoo();
  for (const auto& algo : make_bnp_schedulers()) {
    for (const auto& g : zoo) {
      SchedOptions opt;
      opt.num_procs = 2;
      const Schedule s = algo->run(g, opt);
      const auto v = validate_schedule(s, 2);
      EXPECT_TRUE(v.ok) << algo->name() << " on " << g.name() << ": " << v.error;
      EXPECT_GE(s.makespan(), schedule_length_lower_bound(g, 2));
    }
  }
}

TEST(Bnp, DeterministicSchedules) {
  const TaskGraph g = psg_irregular13();
  for (const auto& algo : make_bnp_schedulers()) {
    const Schedule a = algo->run(g, {});
    const Schedule b = algo->run(g, {});
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      EXPECT_EQ(a.proc(n), b.proc(n)) << algo->name();
      EXPECT_EQ(a.start(n), b.start(n)) << algo->name();
    }
  }
}

TEST(Bnp, ChainStaysSerialAndCommFree) {
  // A chain must execute serially; any sane list scheduler keeps it on one
  // processor (co-location always dominates paying communication).
  const TaskGraph g = chain_graph(8, 10, 50);
  for (const auto& algo : make_bnp_schedulers()) {
    const Schedule s = algo->run(g, {});
    EXPECT_EQ(s.makespan(), 80) << algo->name();
    EXPECT_EQ(s.procs_used(), 1) << algo->name();
  }
}

TEST(Bnp, IndependentTasksPerfectlyParallel) {
  const TaskGraph g = independent_tasks(6, 10);
  for (const auto& algo : make_bnp_schedulers()) {
    const Schedule s = algo->run(g, {});
    EXPECT_EQ(s.makespan(), 10) << algo->name();
    EXPECT_EQ(s.procs_used(), 6) << algo->name();
  }
}

TEST(Bnp, IndependentTasksLoadBalanceOnTwoProcs) {
  const TaskGraph g = independent_tasks(6, 10);
  SchedOptions opt;
  opt.num_procs = 2;
  for (const auto& algo : make_bnp_schedulers()) {
    const Schedule s = algo->run(g, opt);
    EXPECT_EQ(s.makespan(), 30) << algo->name();
  }
}

TEST(Hlfet, PrioritizesByStaticLevel) {
  // Two entry chains: long chain head must be scheduled before short one.
  TaskGraphBuilder b;
  const NodeId a1 = b.add_node(10);  // chain a: 10+10
  const NodeId a2 = b.add_node(10);
  const NodeId c1 = b.add_node(5);  // chain c: 5
  b.add_edge(a1, a2, 0);
  const TaskGraph g = b.finalize();
  (void)c1;
  const SchedulerPtr algo = make_scheduler("HLFET");
  SchedOptions opt;
  opt.num_procs = 1;
  const Schedule s = algo->run(g, opt);
  EXPECT_LT(s.start(a1), s.start(c1));  // higher static level first
}

TEST(Ish, FillsHolesThatHlfetLeaves) {
  // Fork-join with heavy comm: workers scheduled cross-proc create a hole
  // before the join on the source processor; ISH should pack ready tasks
  // into it, never doing worse than HLFET.
  const auto zoo = small_zoo();
  const SchedulerPtr hlfet = make_scheduler("HLFET");
  const SchedulerPtr ish = make_scheduler("ISH");
  int ish_wins = 0, hlfet_wins = 0;
  for (const auto& g : zoo) {
    const Time lh = hlfet->run(g, {}).makespan();
    const Time li = ish->run(g, {}).makespan();
    ish_wins += li < lh;
    hlfet_wins += lh < li;
  }
  // Not a theorem, but on this zoo hole-filling should help at least once
  // and should not lose overall.
  EXPECT_GE(ish_wins, hlfet_wins);
}

TEST(Mcp, SchedulesCpNodesFirstOnCanonical9) {
  // MCP's ALAP-lexicographic order begins with the CP nodes n1, n7, n9
  // (ALAP 0, 12, 22). n1 therefore starts at 0 and n7/n9 land such that
  // the canonical graph schedules within its CP bound estimate.
  const SchedulerPtr mcp = make_scheduler("MCP");
  const TaskGraph g = psg_canonical9();
  const Schedule s = mcp->run(g, {});
  EXPECT_TRUE(validate_schedule(s).ok);
  EXPECT_EQ(s.start(0), 0);
  // MCP is the paper's best BNP performer; on this example it should beat
  // the trivial serial bound (sum of weights = 30) comfortably.
  EXPECT_LT(s.makespan(), 30);
}

TEST(Etf, PicksGloballyEarliestStart) {
  // One heavy entry and one light entry; ETF schedules the light one first
  // if it starts earlier, regardless of level.
  const TaskGraph g = independent_tasks(3, 10);
  const SchedulerPtr etf = make_scheduler("ETF");
  SchedOptions opt;
  opt.num_procs = 3;
  const Schedule s = etf->run(g, opt);
  // All can start at 0 on distinct processors.
  for (NodeId n = 0; n < 3; ++n) EXPECT_EQ(s.start(n), 0);
}

TEST(Dls, NeverIdlesWhenWorkIsReady) {
  const TaskGraph g = psg_canonical9();
  const SchedulerPtr dls = make_scheduler("DLS");
  const Schedule s = dls->run(g, {});
  EXPECT_TRUE(validate_schedule(s).ok);
  // The entry node must start immediately.
  EXPECT_EQ(s.start(0), 0);
}

TEST(Last, TracksCommunicationLocality) {
  // LAST's D_NODE priority grows with edges into the scheduled region; on
  // the canonical 9 graph it must produce a valid schedule (quality is
  // expected to trail the others, as in the paper).
  const SchedulerPtr last = make_scheduler("LAST");
  const TaskGraph g = psg_canonical9();
  const Schedule s = last->run(g, {});
  EXPECT_TRUE(validate_schedule(s).ok);
}

TEST(Bnp, GreedyAlgorithmsSimilarOnCanonical9) {
  // Paper §6.1: "The greedy BNP algorithms give very similar schedule
  // lengths (HLFET, ISH, ETF, MCP, DLS)". Check they are within a 2x band
  // of each other on the canonical example.
  const TaskGraph g = psg_canonical9();
  std::vector<Time> lengths;
  for (const char* name : {"HLFET", "ISH", "ETF", "MCP", "DLS"})
    lengths.push_back(make_scheduler(name)->run(g, {}).makespan());
  const Time lo = *std::min_element(lengths.begin(), lengths.end());
  const Time hi = *std::max_element(lengths.begin(), lengths.end());
  EXPECT_LE(hi, 2 * lo);
}

}  // namespace
}  // namespace tgs
