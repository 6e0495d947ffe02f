// Attribute tests against hand-computed values on the canonical 9-node
// peer-set graph (paper §3 attributes; values derived in the test bodies).
#include <gtest/gtest.h>

#include "fixture_graphs.h"
#include "oracles.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/structured.h"
#include "tgs/graph/attributes.h"

namespace tgs {
namespace {

// Canonical 9-node graph:
//   w: n1=2 n2=3 n3=3 n4=4 n5=5 n6=4 n7=4 n8=4 n9=1
//   edges (cost): 1->2(4) 1->3(1) 1->4(1) 1->5(1) 1->7(10) 2->6(1) 2->7(1)
//                 3->7(1) 3->8(1) 4->8(1) 5->8(1) 6->9(5) 7->9(6) 8->9(5)
class Canonical9 : public ::testing::Test {
 protected:
  TaskGraph g = psg_canonical9();
};

TEST_F(Canonical9, BLevels) {
  const auto b = b_levels(g);
  // Bottom-up: b(n9)=1, b(n6)=10, b(n7)=11, b(n8)=10, b(n2)=15, b(n3)=15,
  // b(n4)=15, b(n5)=16, b(n1)=23.
  EXPECT_EQ(b[8], 1);
  EXPECT_EQ(b[5], 10);
  EXPECT_EQ(b[6], 11);
  EXPECT_EQ(b[7], 10);
  EXPECT_EQ(b[1], 15);
  EXPECT_EQ(b[2], 15);
  EXPECT_EQ(b[3], 15);
  EXPECT_EQ(b[4], 16);
  EXPECT_EQ(b[0], 23);
}

TEST_F(Canonical9, TLevels) {
  const auto t = t_levels(g);
  // t(n1)=0, t(n2)=6, t(n3)=t(n4)=t(n5)=3, t(n6)=10, t(n7)=12, t(n8)=9,
  // t(n9)=22.
  EXPECT_EQ(t[0], 0);
  EXPECT_EQ(t[1], 6);
  EXPECT_EQ(t[2], 3);
  EXPECT_EQ(t[3], 3);
  EXPECT_EQ(t[4], 3);
  EXPECT_EQ(t[5], 10);
  EXPECT_EQ(t[6], 12);
  EXPECT_EQ(t[7], 9);
  EXPECT_EQ(t[8], 22);
}

TEST_F(Canonical9, StaticLevels) {
  const auto sl = static_levels(g);
  // sl(n9)=1, sl(n6)=sl(n7)=sl(n8)=5, sl(n2)=sl(n3)=8, sl(n4)=9, sl(n5)=10,
  // sl(n1)=12.
  EXPECT_EQ(sl[8], 1);
  EXPECT_EQ(sl[5], 5);
  EXPECT_EQ(sl[6], 5);
  EXPECT_EQ(sl[7], 5);
  EXPECT_EQ(sl[1], 8);
  EXPECT_EQ(sl[2], 8);
  EXPECT_EQ(sl[3], 9);
  EXPECT_EQ(sl[4], 10);
  EXPECT_EQ(sl[0], 12);
}

TEST_F(Canonical9, CriticalPathLengthIs23) {
  EXPECT_EQ(critical_path_length(g), 23);
}

TEST_F(Canonical9, CriticalPathIsN1N7N9) {
  const auto cp = critical_path(g);
  ASSERT_EQ(cp.size(), 3u);
  EXPECT_EQ(cp[0], 0u);  // n1
  EXPECT_EQ(cp[1], 6u);  // n7
  EXPECT_EQ(cp[2], 8u);  // n9
  EXPECT_EQ(path_computation_cost(g, cp), 2 + 4 + 1);
}

TEST_F(Canonical9, AlapTimes) {
  const auto alap = alap_times(g);
  EXPECT_EQ(alap[0], 0);   // n1 (on CP)
  EXPECT_EQ(alap[6], 12);  // n7 (on CP): 23-11
  EXPECT_EQ(alap[8], 22);  // n9 (on CP): 23-1
  EXPECT_EQ(alap[4], 7);   // n5: 23-16
  EXPECT_EQ(alap[1], 8);   // n2: 23-15
}

TEST_F(Canonical9, ComputationCriticalPath) {
  // Longest node-weight-only path is n1->n5->n8->n9 = 2+5+4+1 = 12.
  EXPECT_EQ(computation_critical_path_length(g), 12);
}

TEST_F(Canonical9, TLevelPlusBLevelBoundedByCp) {
  const auto t = t_levels(g);
  const auto b = b_levels(g);
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    EXPECT_LE(t[n] + b[n], 23) << "node " << n;
  // Nodes on the CP attain equality.
  EXPECT_EQ(t[0] + b[0], 23);
  EXPECT_EQ(t[6] + b[6], 23);
  EXPECT_EQ(t[8] + b[8], 23);
}

TEST(Attributes, ChainDegenerates) {
  const TaskGraph g = chain_graph(4, 10, 5);
  // CP = all nodes: 4*10 + 3*5 = 55; comp CP = 40.
  EXPECT_EQ(critical_path_length(g), 55);
  EXPECT_EQ(computation_critical_path_length(g), 40);
  const auto cp = critical_path(g);
  EXPECT_EQ(cp.size(), 4u);
  const auto t = t_levels(g);
  EXPECT_EQ(t[3], 45);
  const auto sl = static_levels(g);
  EXPECT_EQ(sl[0], 40);
}

TEST(Attributes, IndependentTasksHaveZeroLevels) {
  const TaskGraph g = independent_tasks(5, 7);
  const auto t = t_levels(g);
  const auto b = b_levels(g);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(t[n], 0);
    EXPECT_EQ(b[n], 7);
  }
  EXPECT_EQ(critical_path_length(g), 7);
}

TEST(Attributes, ForkJoinLevels) {
  const TaskGraph g = fork_join(3, 10, 5);
  // CP: fork -> worker -> join = 30 + 2*5 = 40.
  EXPECT_EQ(critical_path_length(g), 40);
  EXPECT_EQ(computation_critical_path_length(g), 30);
}

TEST(Attributes, LayeredWidthOfForkJoin) {
  EXPECT_EQ(layered_width(fork_join(6, 10, 5)), 6u);
  EXPECT_EQ(layered_width(chain_graph(5)), 1u);
  EXPECT_EQ(layered_width(independent_tasks(9)), 9u);
}

TEST(Attributes, BLevelStrictlyDecreasesAlongEdges) {
  const TaskGraph g = psg_irregular13();
  const auto b = b_levels(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adj& c : g.children(u)) EXPECT_GT(b[u], b[c.node]);
}

TEST(Attributes, CacheMatchesFreeFunctionsAndSurvivesRebinds) {
  GraphAttributeCache cache;
  for (const TaskGraph& g :
       {psg_canonical9(), psg_irregular13(), fork_join(4, 10, 5)}) {
    cache.bind(g);
    EXPECT_EQ(cache.static_levels(), static_levels(g));
    EXPECT_EQ(cache.b_levels(), b_levels(g));
    EXPECT_EQ(cache.t_levels(), t_levels(g));
    EXPECT_EQ(cache.alap_times(), alap_times(g));
    EXPECT_EQ(cache.critical_path_length(), critical_path_length(g));
    // Second access returns the same cached data (no recompute/realloc).
    EXPECT_EQ(cache.static_levels(), static_levels(g));
  }
}

TEST(Attributes, CacheThrowsBeforeBind) {
  GraphAttributeCache cache;
  EXPECT_THROW(cache.static_levels(), std::logic_error);
  EXPECT_THROW(cache.critical_path_length(), std::logic_error);
}

TEST(Attributes, InPlaceVariantsReuseCapacity) {
  const TaskGraph big = fork_join(64, 10, 5);
  const TaskGraph small = chain_graph(5);
  std::vector<Time> buf;
  static_levels_into(big, buf);
  EXPECT_EQ(buf, static_levels(big));
  const Time* data = buf.data();
  const std::size_t cap = buf.capacity();
  static_levels_into(small, buf);  // shrinking reuses the allocation
  EXPECT_EQ(buf, static_levels(small));
  EXPECT_EQ(buf.data(), data);
  EXPECT_EQ(buf.capacity(), cap);
}

}  // namespace
}  // namespace tgs
