// Tests for map/cluster_map.h (UNC + cluster-scheduling extension).
#include <gtest/gtest.h>

#include "tgs/gen/psg.h"
#include "tgs/gen/rgnos.h"
#include "tgs/harness/registry.h"
#include "tgs/map/cluster_map.h"
#include "tgs/sched/validate.h"

namespace tgs {
namespace {

TEST(ClusterMap, ClustersOfExtractsAssignment) {
  const TaskGraph g = psg_canonical9();
  const Schedule s = make_scheduler("DSC")->run(g, {});
  const auto clusters = clusters_of(s);
  ASSERT_EQ(clusters.size(), g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) EXPECT_EQ(clusters[n], s.proc(n));
}

class ClusterMapFixture : public ::testing::Test {
 protected:
  ClusterMapFixture() {
    RgnosParams p;
    p.num_nodes = 80;
    p.ccr = 1.0;
    p.parallelism = 4;
    p.seed = 6;
    graph = rgnos_graph(p);
    unc = std::make_unique<Schedule>(make_scheduler("DSC")->run(graph, {}));
  }
  TaskGraph graph{TaskGraphBuilder("x").finalize()};
  std::unique_ptr<Schedule> unc;
};

TEST_F(ClusterMapFixture, SarkarRespectsProcessorBound) {
  for (int p : {2, 4, 8}) {
    const Schedule s = map_clusters_sarkar(graph, clusters_of(*unc), p);
    const auto v = validate_schedule(s, p);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_LE(s.procs_used(), p);
  }
}

TEST_F(ClusterMapFixture, RcpRespectsProcessorBound) {
  for (int p : {2, 4, 8}) {
    const Schedule s = map_clusters_rcp(graph, clusters_of(*unc), p);
    const auto v = validate_schedule(s, p);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_LE(s.procs_used(), p);
  }
}

TEST_F(ClusterMapFixture, ClustersStayTogether) {
  const auto clusters = clusters_of(*unc);
  const Schedule s = map_clusters_sarkar(graph, clusters, 4);
  for (NodeId a = 0; a < graph.num_nodes(); ++a)
    for (NodeId b = a + 1; b < graph.num_nodes(); ++b)
      if (clusters[a] == clusters[b]) EXPECT_EQ(s.proc(a), s.proc(b));
}

TEST_F(ClusterMapFixture, SarkarConsidersOrderRcpDoesNot) {
  // Paper §7: Sarkar's merging "considering the execution order" should on
  // average do no worse than RCP's order-blind load balancing.
  const auto clusters = clusters_of(*unc);
  const Time sarkar = map_clusters_sarkar(graph, clusters, 4).makespan();
  const Time rcp = map_clusters_rcp(graph, clusters, 4).makespan();
  EXPECT_LE(sarkar, rcp + rcp / 4);  // allow RCP a 25% band, not a theorem
}

TEST(ClusterMap, SingleProcessorDegeneratesToSerial) {
  const TaskGraph g = psg_canonical9();
  const Schedule unc = make_scheduler("DSC")->run(g, {});
  const Schedule s = map_clusters_rcp(g, clusters_of(unc), 1);
  EXPECT_TRUE(validate_schedule(s, 1).ok);
  EXPECT_EQ(s.makespan(), g.total_weight());
}

TEST(ClusterMap, ManyProcsKeepsUncShapeValid) {
  // With as many processors as clusters, mapping must not break validity.
  const TaskGraph g = psg_irregular13();
  const Schedule unc = make_scheduler("DSC")->run(g, {});
  const int k = unc.procs_used();
  const Schedule s = map_clusters_sarkar(g, clusters_of(unc), k);
  EXPECT_TRUE(validate_schedule(s, k).ok);
}

}  // namespace
}  // namespace tgs
