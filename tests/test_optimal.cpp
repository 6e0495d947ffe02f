// Tests for the branch-and-bound optimal scheduler.
#include <gtest/gtest.h>

#include "fixture_graphs.h"
#include "oracles.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgbos.h"
#include "tgs/gen/rgpos.h"
#include "tgs/gen/structured.h"
#include "tgs/harness/registry.h"
#include "tgs/optimal/bb_scheduler.h"
#include "tgs/optimal/lower_bounds.h"
#include "tgs/sched/metrics.h"
#include "tgs/sched/validate.h"

namespace tgs {
namespace {

BBOptions quick(int procs, int threads = 2) {
  BBOptions opt;
  opt.num_procs = procs;
  opt.num_threads = threads;
  opt.time_limit_seconds = 30.0;
  return opt;
}

TEST(LowerBounds, StaticBound) {
  const TaskGraph g = independent_tasks(4, 10);
  EXPECT_EQ(schedule_length_lower_bound(g, 2), 20);
  EXPECT_EQ(schedule_length_lower_bound(g, 4), 10);
  // Nothing placed: the bound is max(comp CP, ceil(work / p)).
  for (int p : {2, 4})
    EXPECT_EQ(LowerBounds(g, p).evaluate(Schedule(g, p)),
              schedule_length_lower_bound(g, p));
}

TEST(LowerBounds, NeverExceedsAchievable) {
  // Bound of the empty schedule must be <= every heuristic's makespan.
  const TaskGraph g = psg_canonical9();
  LowerBounds lb(g, 2);
  Schedule empty(g, 2);
  const Time bound = lb.evaluate(empty);
  SchedOptions opt;
  opt.num_procs = 2;
  for (const auto& algo : make_bnp_schedulers())
    EXPECT_LE(bound, algo->run(g, opt).makespan()) << algo->name();
}

TEST(BranchAndBound, ChainIsSerial) {
  const TaskGraph g = chain_graph(5, 10, 50);
  const BBResult r = branch_and_bound(g, quick(2));
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 50);
  EXPECT_TRUE(validate_schedule(*r.schedule, 2).ok);
}

TEST(BranchAndBound, IndependentTasksBalanced) {
  const TaskGraph g = independent_tasks(6, 10);
  const BBResult r = branch_and_bound(g, quick(2));
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 30);
  const BBResult r3 = branch_and_bound(g, quick(3));
  EXPECT_EQ(r3.length, 20);
}

TEST(BranchAndBound, UnevenTasksPackOptimally) {
  // Weights 7, 5, 4, 3, 2 on 2 procs: optimal makespan = ceil(21/2) = 11
  // (7+4 | 5+3+2).
  TaskGraphBuilder b;
  for (Cost w : {7, 5, 4, 3, 2}) b.add_node(w);
  const TaskGraph g = b.finalize();
  const BBResult r = branch_and_bound(g, quick(2));
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 11);
}

TEST(BranchAndBound, CommForcesSerializationWhenHeavy) {
  // fork-join with comm 100 and tiny tasks: staying serial is optimal.
  const TaskGraph g = fork_join(3, 5, 100);
  const BBResult r = branch_and_bound(g, quick(3));
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, g.total_weight());
}

TEST(BranchAndBound, CommCheapAllowsParallelism) {
  // fork-join with free comm on 3 procs: 5 + 5 + 5 = 15.
  const TaskGraph g = fork_join(3, 5, 0);
  const BBResult r = branch_and_bound(g, quick(3));
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 15);
}

TEST(BranchAndBound, MatchesExhaustiveOnTinyGraphs) {
  // Bounds on vs off must agree (bounds only prune, never lose optima).
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const TaskGraph g = rgbos_graph(1.0, 10, seed);
    BBOptions with = quick(2);
    BBOptions without = quick(2);
    without.disable_bounds = true;
    without.time_limit_seconds = 60.0;
    const BBResult a = branch_and_bound(g, with);
    const BBResult c = branch_and_bound(g, without);
    ASSERT_TRUE(a.proven_optimal);
    ASSERT_TRUE(c.proven_optimal);
    EXPECT_EQ(a.length, c.length) << "seed " << seed;
  }
}

TEST(BranchAndBound, NeverWorseThanHeuristics) {
  const TaskGraph g = rgbos_graph(10.0, 14, 5);
  SchedOptions opt;
  opt.num_procs = 2;
  Time best_heur = kTimeInf;
  for (const auto& algo : make_bnp_schedulers())
    best_heur = std::min(best_heur, algo->run(g, opt).makespan());
  BBOptions bb = quick(2);
  bb.initial_upper_bound = best_heur;
  const BBResult r = branch_and_bound(g, bb);
  ASSERT_TRUE(r.proven_optimal);
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_LE(r.length, best_heur);
  EXPECT_TRUE(validate_schedule(*r.schedule, 2).ok);
}

TEST(BranchAndBound, FindsPlantedRgposOptimum) {
  // RGPOS plants a no-idle optimal schedule; B&B must recover its length.
  RgposParams p;
  p.num_nodes = 12;
  p.num_procs = 2;
  p.ccr = 1.0;
  p.seed = 4;
  const RgposGraph r = rgpos_graph(p);
  const BBResult bb = branch_and_bound(r.graph, quick(2));
  ASSERT_TRUE(bb.proven_optimal);
  EXPECT_EQ(bb.length, r.optimal_length);
}

TEST(BranchAndBound, Canonical9TwoProcs) {
  const TaskGraph g = psg_canonical9();
  const BBResult r = branch_and_bound(g, quick(2));
  ASSERT_TRUE(r.proven_optimal);
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_TRUE(validate_schedule(*r.schedule, 2).ok);
  // Optimal is at most the best heuristic and at least the comp-CP bound.
  EXPECT_GE(r.length, schedule_length_lower_bound(g, 2));
  SchedOptions opt;
  opt.num_procs = 2;
  for (const auto& algo : make_bnp_schedulers())
    EXPECT_LE(r.length, algo->run(g, opt).makespan());
}

TEST(BranchAndBound, TimeBudgetReturnsBestFound) {
  // A large instance with an absurdly small budget must still return
  // something (not proven).
  const TaskGraph g = rgbos_graph(1.0, 28, 9);
  BBOptions opt = quick(2);
  opt.time_limit_seconds = 0.05;
  SchedOptions heur_opt;
  heur_opt.num_procs = 2;
  const Time heur = make_scheduler("MCP")->run(g, heur_opt).makespan();
  opt.initial_upper_bound = heur;
  const BBResult r = branch_and_bound(g, opt);
  // Either it proved within budget (fast machine) or returned best-found.
  if (r.schedule.has_value()) {
    EXPECT_LE(r.length, heur);
    EXPECT_TRUE(validate_schedule(*r.schedule, 2).ok);
  } else {
    EXPECT_FALSE(r.proven_optimal);
  }
}

TEST(BranchAndBound, SingleProcessorIsSerialSum) {
  const TaskGraph g = psg_irregular13();
  const BBResult r = branch_and_bound(g, quick(1));
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, g.total_weight());
}

TEST(BranchAndBound, EmptyGraph) {
  TaskGraphBuilder b;
  const TaskGraph g = b.finalize();
  const BBResult r = branch_and_bound(g, quick(2));
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 0);
}

TEST(BranchAndBound, DeterministicWhenProven) {
  const TaskGraph g = rgbos_graph(0.1, 12, 33);
  const BBResult a = branch_and_bound(g, quick(2));
  const BBResult b = branch_and_bound(g, quick(2, /*threads=*/4));
  ASSERT_TRUE(a.proven_optimal);
  ASSERT_TRUE(b.proven_optimal);
  EXPECT_EQ(a.length, b.length);
}

void expect_identical_results(const BBResult& a, const BBResult& b,
                              const TaskGraph& g) {
  EXPECT_EQ(a.length, b.length);
  EXPECT_EQ(a.proven_optimal, b.proven_optimal);
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  ASSERT_EQ(a.schedule.has_value(), b.schedule.has_value());
  if (a.schedule) {
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      EXPECT_EQ(a.schedule->proc(n), b.schedule->proc(n)) << "task " << n;
      EXPECT_EQ(a.schedule->start(n), b.schedule->start(n)) << "task " << n;
    }
  }
}

TEST(BranchAndBound, ByteIdenticalAtOneVsEightThreads) {
  // The round-synchronous search contract: schedule, length,
  // proven_optimal AND nodes_expanded are pure functions of the input --
  // num_threads is execution width only.
  for (const double ccr : {0.1, 1.0, 10.0}) {
    const TaskGraph g = rgbos_graph(ccr, 14, 21);
    const BBResult a = branch_and_bound(g, quick(2, /*threads=*/1));
    const BBResult b = branch_and_bound(g, quick(2, /*threads=*/8));
    SCOPED_TRACE(ccr);
    ASSERT_TRUE(a.schedule.has_value());
    expect_identical_results(a, b, g);
  }
}

TEST(BranchAndBound, ByteIdenticalAcrossThreadsUnderNodeBudget) {
  // Budget truncation must also cut at the same node at any thread count:
  // the budget is rationed per subtree by the round ledger, not by a
  // shared fetch-add race.
  const TaskGraph g = rgbos_graph(1.0, 24, 9);
  BBOptions opt = quick(2, /*threads=*/1);
  opt.time_limit_seconds = 0.0;
  opt.max_nodes = 20'000;
  const BBResult a = branch_and_bound(g, opt);
  opt.num_threads = 8;
  const BBResult b = branch_and_bound(g, opt);
  EXPECT_GE(a.nodes_expanded, 1u);
  expect_identical_results(a, b, g);
}

TEST(BranchAndBound, UpperBoundPruningEverythingReportsTheBound) {
  // A bound below every achievable makespan prunes the whole tree; the
  // result must report that bound (not a bogus 0) and stay proven.
  const TaskGraph g = chain_graph(5, 10, 50);  // optimum = 50
  BBOptions opt = quick(2);
  opt.initial_upper_bound = 20;
  const BBResult r = branch_and_bound(g, opt);
  EXPECT_FALSE(r.schedule.has_value());
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.length, 20);
}

TEST(BranchAndBound, InitialScheduleSeedsTheIncumbent) {
  const TaskGraph g = rgbos_graph(10.0, 14, 5);
  SchedOptions heur_opt;
  heur_opt.num_procs = 2;
  const Schedule heur = make_scheduler("MCP")->run(g, heur_opt);

  // Starved budget: too small to complete anything, yet the seeded
  // incumbent guarantees a schedule no worse than the heuristic.
  BBOptions starved = quick(2);
  starved.time_limit_seconds = 0.0;
  starved.max_nodes = 1;
  starved.initial_schedule = heur;
  const BBResult r = branch_and_bound(g, starved);
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_LE(r.length, heur.makespan());
  EXPECT_FALSE(r.proven_optimal);
  EXPECT_TRUE(validate_schedule(*r.schedule, 2).ok);

  // Full search seeded with the heuristic: still finds the true optimum.
  BBOptions full = quick(2);
  full.initial_schedule = heur;
  full.initial_upper_bound = heur.makespan();
  const BBResult best = branch_and_bound(g, full);
  const BBResult unseeded = branch_and_bound(g, quick(2));
  ASSERT_TRUE(best.proven_optimal);
  ASSERT_TRUE(best.schedule.has_value());
  EXPECT_EQ(best.length, unseeded.length);
}

}  // namespace
}  // namespace tgs
