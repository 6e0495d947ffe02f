// Tests for the parameterized scheduler core (src/tgs/param/).
//
// The load-bearing suite of the refactor: the named algorithms HLFET, ISH,
// MCP, ETF, DLS, EZ and LC are now parameter points of param_schedule, and
// these tests pin them byte-for-byte against frozen copies of the original
// standalone implementations (tests/reference_named.h,
// tests/reference_schedulers.h). The full crossproduct is additionally
// swept for validity, determinism and workspace-independence.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <tuple>

#include "reference_named.h"
#include "reference_schedulers.h"
#include "tgs/gen/rgnos.h"
#include "tgs/graph/task_graph.h"
#include "tgs/harness/registry.h"
#include "tgs/param/param_spec.h"
#include "tgs/sched/validate.h"
#include "tgs/sched/workspace.h"

namespace tgs {
namespace {

TaskGraph graph_for(std::uint64_t seed, double ccr) {
  RgnosParams p;
  p.num_nodes = 40;
  p.ccr = ccr;
  p.parallelism = 3;
  p.seed = seed;
  return rgnos_graph(p);
}

std::vector<ParamSpec> all_combos() {
  std::vector<ParamSpec> out;
  for (const ParamMetric m : all_param_metrics())
    for (const ParamReady r : all_param_readies())
      for (const ParamInsertion i : all_param_insertions())
        for (const ParamCluster c : all_param_clusters())
          out.push_back({m, r, i, c});
  return out;
}

void expect_same_schedule(const Schedule& a, const Schedule& b,
                          const std::string& what) {
  ASSERT_EQ(a.graph().num_nodes(), b.graph().num_nodes()) << what;
  for (NodeId n = 0; n < a.graph().num_nodes(); ++n) {
    ASSERT_EQ(a.proc(n), b.proc(n)) << what << ", node " << n;
    ASSERT_EQ(a.start(n), b.start(n)) << what << ", node " << n;
  }
}

// ------------------------------------------------------------ spec text ----

TEST(ParamSpec, RoundTripsEveryCombination) {
  for (const ParamSpec& s : all_combos()) {
    const std::string text = s.to_string();
    EXPECT_TRUE(ParamSpec::is_spec(text)) << text;
    EXPECT_EQ(ParamSpec::parse(text), s) << text;
  }
  EXPECT_EQ(all_combos().size(), 7u * 4u * 3u * 4u);
}

TEST(ParamSpec, ThreeSegmentFormDefaultsToNoCluster) {
  const ParamSpec s = ParamSpec::parse("param:alap/etf/insert");
  EXPECT_EQ(s.metric, ParamMetric::kALAP);
  EXPECT_EQ(s.ready, ParamReady::kPairEtf);
  EXPECT_EQ(s.insertion, ParamInsertion::kInsert);
  EXPECT_EQ(s.cluster, ParamCluster::kNone);
  EXPECT_EQ(s.to_string(), "param:alap/etf/insert/none");
}

TEST(ParamSpec, BadTokenNamesAxisAndGrammar) {
  try {
    ParamSpec::parse("param:sl/static/banana");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("banana"), std::string::npos) << msg;
    EXPECT_NE(msg.find("param:<metric>"), std::string::npos) << msg;
  }
  EXPECT_THROW(ParamSpec::parse("param:sl/static"), std::invalid_argument);
  EXPECT_THROW(ParamSpec::parse("param:sl/static/append/none/x"),
               std::invalid_argument);
}

// ------------------------------------------------------------- registry ----

TEST(ParamRegistry, MakeSchedulerAcceptsSpecs) {
  const SchedulerPtr s = make_scheduler("param:sl/static/append");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->name(), "param:sl/static/append/none");
  EXPECT_EQ(s->algo_class(), AlgoClass::kBNP);
  EXPECT_EQ(make_scheduler("param:bl/static/append/ez")->algo_class(),
            AlgoClass::kUNC);
}

TEST(ParamRegistry, UnknownNameEnumeratesNamesAndGrammar) {
  try {
    make_scheduler("NOPE");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* name : {"HLFET", "ISH", "MCP", "ETF", "DLS", "LAST",
                             "EZ", "LC", "DSC", "MD", "DCP"})
      EXPECT_NE(msg.find(name), std::string::npos) << msg << " / " << name;
    EXPECT_NE(msg.find("param:<metric>"), std::string::npos) << msg;
  }
}

TEST(ParamRegistry, NamedAlgorithmsExposeTheirSpecs) {
  const std::map<std::string, std::string> expected = {
      {"HLFET", "param:sl/static/append/none"},
      {"ISH", "param:sl/static/hole/none"},
      {"MCP", "param:alaplist/static/insert/none"},
      {"ETF", "param:sl/etf/append/none"},
      {"DLS", "param:sl/dls/append/none"},
      {"EZ", "param:bl/static/append/ez"},
      {"LC", "param:bl/static/append/lc"},
  };
  int seen = 0;
  for (const SchedulerPtr& s : make_unc_and_bnp_schedulers()) {
    const std::optional<ParamSpec> spec = param_spec_of(s->name());
    const auto it = expected.find(s->name());
    if (it == expected.end()) {
      // LAST, DSC, MD, DCP are not expressible as parameter points and
      // must have kept their standalone implementations.
      EXPECT_FALSE(spec.has_value()) << s->name();
      continue;
    }
    ASSERT_TRUE(spec.has_value()) << s->name();
    EXPECT_EQ(spec->to_string(), it->second) << s->name();
    ++seen;
  }
  EXPECT_EQ(seen, 7);
}

// ------------------------------------- byte-identity vs frozen originals ----

// The union-find the frozen EZ and LC cluster with (reference_named.h).
TEST(DisjointSets, MergeAndFind) {
  reference::DisjointSets ds(6);
  ds.merge(1, 4);
  EXPECT_TRUE(ds.same(1, 4));
  EXPECT_EQ(ds.find(4), 1u);  // smaller representative wins
  ds.merge(4, 0);
  EXPECT_EQ(ds.find(1), 0u);
}

TEST(Clustering, DenseAssignmentOrdersByFirstAppearance) {
  reference::DisjointSets ds(5);
  ds.merge(2, 4);
  const auto a = reference::dense_assignment(ds);
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[1], 1);
  EXPECT_EQ(a[2], 2);
  EXPECT_EQ(a[3], 3);
  EXPECT_EQ(a[4], 2);
}

// The same DAG with unit node weights and every edge cost equal to `cost`:
// most tentative EZ merges then leave the makespan exactly where it was, so
// the <= acceptance at len == best decides the clustering, and an early
// exit that fired at len == best instead of len > best would change it.
TaskGraph tie_heavy(const TaskGraph& g, Cost cost) {
  TaskGraphBuilder b(g.name() + "_ties");
  for (NodeId n = 0; n < g.num_nodes(); ++n) b.add_node(1);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adj& c : g.children(u)) b.add_edge(u, c.node, cost);
  return b.finalize();
}

// seed, ccr, procs, tie-heavy (uniform costs with edge cost = (int)ccr)
using NamedCase = std::tuple<std::uint64_t, double, int, bool>;

class NamedPointIdentity : public ::testing::TestWithParam<NamedCase> {};

TEST_P(NamedPointIdentity, MatchesPreRefactorImplementations) {
  const auto& [seed, ccr, procs, ties] = GetParam();
  const TaskGraph g = ties ? tie_heavy(graph_for(seed, ccr),
                                       static_cast<Cost>(ccr))
                           : graph_for(seed, ccr);
  SchedOptions opt;
  opt.num_procs = procs;

  expect_same_schedule(make_scheduler("HLFET")->run(g, opt),
                       reference::original_hlfet(g, opt), "HLFET");
  expect_same_schedule(make_scheduler("ISH")->run(g, opt),
                       reference::original_ish(g, opt), "ISH");
  expect_same_schedule(make_scheduler("MCP")->run(g, opt),
                       reference::original_mcp(g, opt), "MCP");
  expect_same_schedule(make_scheduler("ETF")->run(g, opt),
                       reference::naive_etf(g, opt), "ETF");
  expect_same_schedule(make_scheduler("DLS")->run(g, opt),
                       reference::naive_dls(g, opt), "DLS");
  if (procs == 0) {  // the UNC pair is unbounded by definition
    expect_same_schedule(make_scheduler("EZ")->run(g, opt),
                         reference::original_ez(g), "EZ");
    expect_same_schedule(make_scheduler("LC")->run(g, opt),
                         reference::original_lc(g), "LC");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NamedPointIdentity,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3),
                       ::testing::Values(0.1, 1.0, 10.0),
                       ::testing::Values(0, 2, 4), ::testing::Bool()));

// EZ on two dense v = 200 graphs, communication-light and -heavy. Merges
// here join clusters that already hold many members, both accepted and
// rejected ones, so EZ's per-edge cluster costs are zeroed across whole
// clusters and restored after a rejection, in both directions.
TEST(NamedPointIdentity, EzMatchesOriginalOnDenseGraphs) {
  for (const double ccr : {0.1, 10.0}) {
    RgnosParams p;
    p.num_nodes = 200;
    p.ccr = ccr;
    p.parallelism = 1;
    p.seed = 4;
    const TaskGraph g = rgnos_graph(p);
    const Schedule got = make_scheduler("EZ")->run(g, {});
    expect_same_schedule(got, reference::original_ez(g),
                         "EZ ccr " + std::to_string(ccr));
    std::map<ProcId, int> members;
    for (NodeId n = 0; n < g.num_nodes(); ++n) ++members[got.proc(n)];
    int largest = 0;
    for (const auto& [proc, count] : members) largest = std::max(largest, count);
    EXPECT_GE(largest, 5) << "ccr " << ccr;
  }
}

// ------------------------------------------------- the full crossproduct ----

class ComboProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ComboProperty, EveryComboValidDeterministicWorkspaceIndependent) {
  const std::uint64_t seed = GetParam();
  const TaskGraph g = graph_for(seed, seed % 2 == 0 ? 1.0 : 10.0);
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (const ParamSpec& spec : all_combos()) {
    const SchedulerPtr algo = make_scheduler(spec.to_string());
    const Schedule fresh = algo->run(g, {});
    const auto v = validate_schedule(fresh);
    ASSERT_TRUE(v.ok) << spec.to_string() << ": " << v.error;
    // Workspace reuse across all 336 combos must not change any result.
    const Schedule shared = algo->run(g, {}, ws);
    expect_same_schedule(fresh, shared, spec.to_string() + " (workspace)");
    const Schedule again = algo->run(g, {});
    expect_same_schedule(fresh, again, spec.to_string() + " (rerun)");
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, ComboProperty,
                         ::testing::Values<std::uint64_t>(11, 12));

TEST(ComboProperty, ClusteredCombosRespectProcessorBound) {
  const TaskGraph g = graph_for(21, 1.0);
  SchedOptions opt;
  opt.num_procs = 3;
  for (const ParamCluster c :
       {ParamCluster::kEz, ParamCluster::kLc, ParamCluster::kDsc}) {
    for (const ParamReady r : all_param_readies()) {
      const ParamSpec spec{ParamMetric::kBL, r, ParamInsertion::kAppend, c};
      const SchedulerPtr algo = make_scheduler(spec.to_string());
      const Schedule s = algo->run(g, opt);
      const auto v = validate_schedule(s, opt.num_procs);
      ASSERT_TRUE(v.ok) << algo->name() << ": " << v.error;
      EXPECT_LE(s.procs_used(), 3) << algo->name();
    }
  }
}

}  // namespace
}  // namespace tgs
