// Unit tests for list/ready_list.h, its frozen sorted twin
// (reference_ready_list.h) and the priority orders the schedulers build on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fixture_graphs.h"
#include "reference_named.h"
#include "reference_ready_list.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/structured.h"
#include "tgs/gen/traced.h"
#include "tgs/list/ready_list.h"
#include "tgs/unc/cluster_schedule.h"
#include "tgs/util/rng.h"

namespace tgs {
namespace {

// The ready set is unordered; compare it as a set.
std::vector<NodeId> sorted(const ReadyList& rl) {
  std::vector<NodeId> r = rl.ready();
  std::sort(r.begin(), r.end());
  return r;
}

TEST(Priorities, BlevelOrderDescendsWithIdTies) {
  // No edges, so every b-level is the node's weight.
  TaskGraphBuilder b;
  for (Cost w : {5, 9, 5, 1}) b.add_node(w);
  const TaskGraph g = b.finalize();
  EXPECT_EQ(blevel_order(g), (std::vector<NodeId>{1, 0, 2, 3}));  // ties by id
}

TEST(Priorities, ArgmaxPriority) {
  using reference::argmax_priority;
  const std::vector<Time> prio{3, 7, 7, 2};
  EXPECT_EQ(argmax_priority({0, 1, 2, 3}, prio), 1u);  // tie 1 vs 2 -> 1
  EXPECT_EQ(argmax_priority({0, 3}, prio), 0u);
  EXPECT_EQ(argmax_priority({}, prio), kNoNode);
}

TEST(ReadyList, InitialEntriesOnly) {
  const TaskGraph g = fork_join(3, 10, 5);
  ReadyList rl(g);
  ASSERT_EQ(rl.ready().size(), 1u);
  EXPECT_EQ(rl.ready()[0], 0u);  // the fork
}

TEST(ReadyList, AdmitsChildrenWhenAllParentsScheduled) {
  const TaskGraph g = fork_join(2, 10, 5);  // 0 fork, 1-2 workers, 3 join
  ReadyList rl(g);
  const auto admitted = [](std::span<const NodeId> s) {
    return std::vector<NodeId>(s.begin(), s.end());
  };
  EXPECT_EQ(admitted(rl.mark_scheduled(0)), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(sorted(rl), (std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(rl.mark_scheduled(1).empty());
  EXPECT_EQ(sorted(rl), (std::vector<NodeId>{2}));  // join still blocked
  EXPECT_FALSE(rl.is_ready(1));
  EXPECT_EQ(admitted(rl.mark_scheduled(2)), (std::vector<NodeId>{3}));
  EXPECT_EQ(sorted(rl), (std::vector<NodeId>{3}));
  EXPECT_TRUE(rl.mark_scheduled(3).empty());
  EXPECT_TRUE(rl.empty());
}

TEST(ReadyList, RejectsSchedulingNonReadyNode) {
  const TaskGraph g = chain_graph(3);
  ReadyList rl(g);
  EXPECT_THROW(rl.mark_scheduled(2), std::logic_error);
}

TEST(SortedReadyList, KeepsSortedOrder) {
  const TaskGraph g = psg_canonical9();
  reference::SortedReadyList rl(g);
  while (!rl.empty()) {
    const auto& r = rl.ready();
    for (std::size_t i = 1; i < r.size(); ++i) EXPECT_LT(r[i - 1], r[i]);
    rl.mark_scheduled(r.front());
  }
}

TEST(ReadyList, DrainsWholeGraphInTopologicalOrder) {
  const TaskGraph g = psg_pipelines16();
  ReadyList rl(g);
  std::vector<bool> done(g.num_nodes(), false);
  std::size_t count = 0;
  while (!rl.empty()) {
    const NodeId n = rl.ready().front();
    for (const Adj& p : g.parents(n)) EXPECT_TRUE(done[p.node]);
    done[n] = true;
    ++count;
    rl.mark_scheduled(n);
  }
  EXPECT_EQ(count, g.num_nodes());
}

// Seeded random drains, production set against the frozen sorted list:
// after every step the two hold the same nodes, agree on is_ready for
// every node, and the span mark_scheduled returns is exactly the children
// the step admitted, in children() order.
TEST(ReadyList, MatchesSortedReferenceAsASet) {
  RgnosParams p;
  p.num_nodes = 500;
  p.ccr = 1.0;
  p.parallelism = 3;
  p.seed = 31;
  const std::vector<TaskGraph> graphs = {psg_canonical9(), rgnos_graph(p),
                                         fft_graph(512), cholesky_graph(60)};
  for (const TaskGraph& g : graphs) {
    for (const std::uint64_t seed : {1u, 2u}) {
      const std::string tag = g.name() + " seed " + std::to_string(seed);
      ReadyList rl(g);
      reference::SortedReadyList ref(g);
      Rng rng(seed);
      std::size_t steps = 0;
      while (!ref.empty()) {
        ASSERT_EQ(sorted(rl), ref.ready()) << tag << " step " << steps;
        for (NodeId n = 0; n < g.num_nodes(); ++n)
          ASSERT_EQ(rl.is_ready(n), ref.is_ready(n)) << tag << " node " << n;
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ref.size()) - 1));
        const NodeId n = ref.ready()[at];
        const std::span<const NodeId> got = rl.mark_scheduled(n);
        ref.mark_scheduled(n);
        std::vector<NodeId> want;
        for (const Adj& c : g.children(n))
          if (ref.is_ready(c.node)) want.push_back(c.node);
        ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), want)
            << tag << " step " << steps;
        ++steps;
      }
      EXPECT_TRUE(rl.empty()) << tag;
      EXPECT_EQ(steps, g.num_nodes()) << tag;
    }
  }
}

}  // namespace
}  // namespace tgs
