// Unit tests for sched/schedule.h and sched/validate.h.
#include <gtest/gtest.h>

#include "fixture_graphs.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/structured.h"
#include "tgs/sched/gantt.h"
#include "tgs/sched/schedule.h"
#include "tgs/sched/validate.h"

namespace tgs {
namespace {

TEST(Schedule, PlaceAndQuery) {
  const TaskGraph g = chain_graph(3, 10, 5);
  Schedule s(g, 2);
  s.place(0, 0, 0);
  s.place(1, 0, 10);
  s.place(2, 1, 35);  // cross-proc: 20 finish + 5 comm would be 25; 35 ok
  EXPECT_EQ(s.placed_count(), g.num_nodes());
  EXPECT_EQ(s.proc(1), 0);
  EXPECT_EQ(s.start(2), 35);
  EXPECT_EQ(s.finish(2), 45);
  EXPECT_EQ(s.makespan(), 45);
  EXPECT_EQ(s.procs_used(), 2);
}

TEST(Schedule, RejectsDoublePlacement) {
  const TaskGraph g = independent_tasks(2);
  Schedule s(g);
  s.place(0, 0, 0);
  EXPECT_THROW(s.place(0, 1, 0), std::logic_error);
}

TEST(Schedule, RejectsProcessorOverlap) {
  const TaskGraph g = independent_tasks(2, 10);
  Schedule s(g);
  s.place(0, 0, 0);
  EXPECT_THROW(s.place(1, 0, 5), std::logic_error);
}

TEST(Schedule, UnplaceRestoresState) {
  const TaskGraph g = independent_tasks(2, 10);
  Schedule s(g);
  s.place(0, 0, 0);
  s.unplace(0);
  EXPECT_FALSE(s.is_placed(0));
  EXPECT_EQ(s.placed_count(), 0u);
  s.place(1, 0, 3);  // the slot is free again
  EXPECT_EQ(s.start(1), 3);
  EXPECT_THROW(s.unplace(0), std::logic_error);
}

TEST(Schedule, DataReadyAccountsForCommunication) {
  const TaskGraph g = fork_join(2, 10, 5);  // 0=fork, 1..2=workers, 3=join
  Schedule s(g, 3);
  s.place(0, 0, 0);  // finishes at 10
  EXPECT_EQ(s.data_ready(1, 0), 10);  // same proc: no comm
  EXPECT_EQ(s.data_ready(1, 1), 15);  // cross: +5
  s.place(1, 0, 10);
  s.place(2, 1, 15);
  // join on proc 0: worker1 local (20), worker2 cross (25+5=30).
  EXPECT_EQ(s.data_ready(3, 0), 30);
  // join on proc 2: both cross: max(20+5, 25+5) = 30.
  EXPECT_EQ(s.data_ready(3, 2), 30);
}

TEST(Schedule, EstUsesInsertionWhenAsked) {
  const TaskGraph g = independent_tasks(3, 10);
  Schedule s(g, 1);
  s.place(0, 0, 0);
  s.place(1, 0, 30);  // gap [10, 30)
  EXPECT_EQ(s.est(2, 0, /*insertion=*/true), 10);
  EXPECT_EQ(s.est(2, 0, /*insertion=*/false), 40);
}

TEST(Schedule, GrowsProcessorsOnDemand) {
  const TaskGraph g = independent_tasks(2);
  Schedule s(g, 1);
  s.place(0, 0, 0);
  s.place(1, 5, 0);
  EXPECT_GE(s.num_procs(), 6);
  EXPECT_EQ(s.procs_used(), 2);
}

TEST(Validate, AcceptsCorrectSchedule) {
  const TaskGraph g = chain_graph(3, 10, 5);
  Schedule s(g, 2);
  s.place(0, 0, 0);
  s.place(1, 0, 10);
  s.place(2, 1, 25);
  EXPECT_TRUE(validate_schedule(s));
}

TEST(Validate, RejectsIncomplete) {
  const TaskGraph g = chain_graph(2);
  Schedule s(g);
  s.place(0, 0, 0);
  const auto r = validate_schedule(s);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not placed"), std::string::npos);
}

TEST(Validate, RejectsSameProcPrecedenceViolation) {
  TaskGraphBuilder b;
  const NodeId x = b.add_node(10);
  const NodeId y = b.add_node(10);
  b.add_edge(x, y, 0);
  const TaskGraph g = b.finalize();
  Schedule s(g, 2);
  s.place(y, 0, 0);
  s.place(x, 0, 10);  // child before parent on the same proc
  const auto r = validate_schedule(s);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("violated"), std::string::npos);
}

TEST(Validate, RejectsMissingCommDelay) {
  const TaskGraph g = chain_graph(2, 10, 5);
  Schedule s(g, 2);
  s.place(0, 0, 0);
  s.place(1, 1, 12);  // needs 10 + 5 = 15 cross-proc
  EXPECT_FALSE(validate_schedule(s).ok);
  Schedule ok(g, 2);
  ok.place(0, 0, 0);
  ok.place(1, 1, 15);
  EXPECT_TRUE(validate_schedule(ok).ok);
}

TEST(Validate, EnforcesProcessorBound) {
  const TaskGraph g = independent_tasks(2, 5);
  Schedule s(g, 4);
  s.place(0, 0, 0);
  s.place(1, 3, 0);
  EXPECT_TRUE(validate_schedule(s).ok);
  EXPECT_FALSE(validate_schedule(s, /*max_procs=*/2).ok);
}

TEST(Gantt, ListingAndChartRender) {
  const TaskGraph g = psg_canonical9();
  Schedule s(g, 2);
  // Simple serial placement on one processor in topological order.
  Time t = 0;
  for (NodeId n : g.topological_order()) {
    s.place(n, 0, t);
    t += g.weight(n);
  }
  EXPECT_TRUE(validate_schedule(s).ok);
  const std::string listing = schedule_listing(s);
  EXPECT_NE(listing.find("P0"), std::string::npos);
  EXPECT_NE(listing.find("n1"), std::string::npos);
  const std::string chart = gantt_chart(s, 60);
  EXPECT_NE(chart.find('#'), std::string::npos);
}

}  // namespace
}  // namespace tgs
