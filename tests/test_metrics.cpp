// Unit tests for sched/metrics.h (paper §6 performance measures).
#include <gtest/gtest.h>

#include "fixture_graphs.h"
#include "oracles.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/structured.h"
#include "tgs/graph/attributes.h"
#include "tgs/sched/metrics.h"

namespace tgs {
namespace {

TEST(Metrics, NslUsesCpComputationCosts) {
  const TaskGraph g = psg_canonical9();
  // CP = n1, n7, n9 with computation 2+4+1 = 7.
  EXPECT_DOUBLE_EQ(normalized_schedule_length(g, 7), 1.0);
  EXPECT_DOUBLE_EQ(normalized_schedule_length(g, 14), 2.0);
}

TEST(Metrics, PercentDegradation) {
  EXPECT_DOUBLE_EQ(percent_degradation(110, 100), 10.0);
  EXPECT_DOUBLE_EQ(percent_degradation(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(percent_degradation(95, 100), -5.0);
  EXPECT_DOUBLE_EQ(percent_degradation(10, 0), 0.0);  // guarded
}

TEST(Metrics, Speedup) {
  const TaskGraph g = independent_tasks(4, 10);  // serial 40
  EXPECT_DOUBLE_EQ(speedup(g, 10), 4.0);
}

TEST(Metrics, LowerBoundCombinesCpAndLoad) {
  const TaskGraph g = independent_tasks(4, 10);
  EXPECT_EQ(schedule_length_lower_bound(g, 2), 20);  // load bound
  EXPECT_EQ(schedule_length_lower_bound(g, 100), 10);  // cp bound
  const TaskGraph c = chain_graph(4, 10, 100);
  EXPECT_EQ(schedule_length_lower_bound(c, 2), 40);  // chain is serial
}

TEST(Metrics, LowerBoundUnboundedProcs) {
  const TaskGraph g = fork_join(8, 10, 0);
  EXPECT_EQ(schedule_length_lower_bound(g, 0), 30);
}

TEST(Metrics, NslAtLeastOneForValidLengths) {
  // Any length >= the CP computation sum gives NSL >= 1.
  const TaskGraph g = psg_irregular13();
  const auto cp = critical_path(g);
  const Cost denom = path_computation_cost(g, cp);
  EXPECT_GE(normalized_schedule_length(g, denom), 1.0);
  EXPECT_GE(normalized_schedule_length(g, denom + 17), 1.0);
}

}  // namespace
}  // namespace tgs
