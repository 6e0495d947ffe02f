// Property and adversarial tests of the incremental pair-selection core
// (bnp/bnp_common.h): the cached (ready node, processor) bests must
// reproduce the naive exhaustive re-evaluation BYTE-FOR-BYTE -- same node,
// same processor, same start, every step -- over random RGNOS / RGPOS /
// PSG graphs, bounded and unbounded machines, append and insertion modes,
// and under arbitrary placement policies. reference_schedulers.h holds
// the naive ground-truth loops (the retired pre-selector implementations).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "reference_schedulers.h"
#include "tgs/apn/dls_apn.h"
#include "tgs/bnp/bnp_common.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/rgpos.h"
#include "tgs/harness/registry.h"
#include "tgs/graph/task_graph.h"
#include "tgs/list/ready_list.h"
#include "tgs/net/routing.h"
#include "tgs/net/topology.h"
#include "tgs/sched/workspace.h"

namespace tgs {
namespace {

void expect_identical(const Schedule& a, const Schedule& b,
                      const std::string& what) {
  ASSERT_EQ(a.graph().num_nodes(), b.graph().num_nodes()) << what;
  for (NodeId n = 0; n < a.graph().num_nodes(); ++n) {
    ASSERT_EQ(a.proc(n), b.proc(n)) << what << ": proc of node " << n;
    ASSERT_EQ(a.start(n), b.start(n)) << what << ": start of node " << n;
  }
}

std::vector<TaskGraph> property_graphs() {
  std::vector<TaskGraph> graphs;
  // RGNOS: the paper's random graphs with no known optima, across CCR and
  // parallelism extremes.
  for (const auto& [ccr, par, seed] :
       std::vector<std::tuple<double, int, std::uint64_t>>{
           {0.1, 1, 11}, {1.0, 3, 22}, {10.0, 5, 33}, {2.0, 4, 44}}) {
    RgnosParams p;
    p.num_nodes = 60;
    p.ccr = ccr;
    p.parallelism = par;
    p.seed = seed;
    graphs.push_back(rgnos_graph(p));
  }
  // RGPOS: planted-optimum graphs (very different edge structure).
  for (const std::uint64_t seed : {7u, 8u}) {
    RgposParams p;
    p.num_nodes = 50;
    p.num_procs = 4;
    p.ccr = 1.0;
    p.seed = seed;
    graphs.push_back(rgpos_graph(p).graph);
  }
  // PSG: the paper's fixed peer-set graphs (tiny, edge-case heavy).
  for (auto& entry : peer_set_graphs()) graphs.push_back(std::move(entry.graph));
  return graphs;
}

TEST(PairSelector, EtfAndDlsMatchNaiveOverGraphsProcsAndInsertion) {
  SchedWorkspace ws;
  for (const TaskGraph& g : property_graphs()) {
    ws.begin_graph(g);
    for (const int procs : {0, 2, 5}) {
      SchedOptions opt;
      opt.num_procs = procs;
      for (const bool insertion : {false, true}) {
        const std::string tag = g.name() + " procs=" + std::to_string(procs) +
                                " insertion=" + std::to_string(insertion);
        expect_identical(reference::naive_etf(g, opt, insertion),
                         reference::incremental_etf(g, opt, insertion, ws),
                         "ETF " + tag);
        expect_identical(reference::naive_dls(g, opt, insertion),
                         reference::incremental_dls(g, opt, insertion, ws),
                         "DLS " + tag);
      }
      // The production schedulers are the append-mode instantiations.
      expect_identical(reference::naive_etf(g, opt, false),
                       make_scheduler("ETF")->run(g, opt, ws),
                       "ETF " + g.name());
      expect_identical(reference::naive_dls(g, opt, false),
                       make_scheduler("DLS")->run(g, opt, ws),
                       "DLS " + g.name());
    }
  }
}

// Drive the selector with an arbitrary deterministic placement policy
// (not the ETF/DLS argmin) and, after every mutation, check each cached
// best against the exhaustive best_est_proc scan. This covers invalidation
// paths the algorithm-shaped runs may never hit on a given graph.
TEST(PairSelector, CachedBestsStayExactUnderArbitraryPlacements) {
  for (const bool insertion : {false, true}) {
    for (const std::uint64_t seed : {5u, 6u}) {
      RgnosParams p;
      p.num_nodes = 40;
      p.ccr = 1.0;
      p.parallelism = 3;
      p.seed = seed;
      const TaskGraph g = rgnos_graph(p);

      SchedWorkspace ws;
      ws.begin_graph(g);
      Schedule sched(g, effective_procs(g, {}));
      ProcScanner scanner(effective_procs(g, {}));
      ReadyList ready(g);
      IncrementalPairSelector sel(sched, scanner, insertion,
                                  ws.pair_scratch());
      for (NodeId n : ready.ready()) sel.node_ready(n);

      std::uint64_t h = seed * 0x9E3779B97F4A7C15ull;
      while (!ready.empty()) {
        for (NodeId m : ready.ready()) {
          const ProcChoice want = best_est_proc(sched, m, scanner, insertion);
          EXPECT_EQ(sel.best(m).proc, want.proc) << "node " << m;
          EXPECT_EQ(sel.best(m).start, want.start) << "node " << m;
        }
        h = h * 6364136223846793005ull + 1442695040888963407ull;
        const NodeId n = ready.ready()[(h >> 33) % ready.size()];
        h = h * 6364136223846793005ull + 1442695040888963407ull;
        const ProcId q = static_cast<ProcId>(
            (h >> 33) % static_cast<std::uint64_t>(scanner.scan_count()));
        const Time t = sched.earliest_start_on(q, sched.data_ready(n, q),
                                               g.weight(n), insertion);
        sched.place(n, q, t);
        scanner.note_placement(q);
        sel.node_placed(n, q);
        ready.mark_scheduled(n);
        for (const Adj& c : g.children(n))
          if (ready.is_ready(c.node)) sel.node_ready(c.node);
      }
    }
  }
}

// Adversarial: a placement that fills the cached best processor while a
// fresh processor stands open must move the cached pair onto the fresh
// processor -- the scenario the scan-window invalidation exists for.
TEST(PairSelector, NewlyOpenedProcessorInvalidatesCachedPair) {
  // Three independent tasks; no edges, so every EST is pure timeline.
  TaskGraphBuilder b("adversarial");
  b.add_node(10);
  b.add_node(1);
  b.add_node(1);
  const TaskGraph g = b.finalize();

  SchedWorkspace ws;
  ws.begin_graph(g);
  Schedule sched(g, 3);
  ProcScanner scanner(3);
  ReadyList ready(g);
  IncrementalPairSelector sel(sched, scanner, /*insertion=*/false,
                              ws.pair_scratch());
  for (NodeId n : ready.ready()) sel.node_ready(n);

  // Initially only processor 0 is in the scan window.
  EXPECT_EQ(sel.best(1).proc, 0);
  EXPECT_EQ(sel.best(1).start, 0);

  // Place node 0 on processor 0: the window grows to {0, 1} and nodes 1, 2
  // (cached on the now-busy processor 0) must migrate to the fresh one.
  sched.place(0, 0, 0);
  scanner.note_placement(0);
  sel.node_placed(0, 0);
  ready.mark_scheduled(0);
  EXPECT_EQ(scanner.scan_count(), 2);
  EXPECT_EQ(sel.best(1).proc, 1);
  EXPECT_EQ(sel.best(1).start, 0);
  EXPECT_EQ(sel.best(2).proc, 1);
  EXPECT_EQ(sel.best(2).start, 0);

  // Occupy the fresh processor 1: node 2's cached best sits on it, so the
  // placement must push node 2 onto newly opened processor 2, not back
  // onto processor 0 (busy until t=10).
  sched.place(1, 1, 0);
  scanner.note_placement(1);
  sel.node_placed(1, 1);
  ready.mark_scheduled(1);
  EXPECT_EQ(scanner.scan_count(), 3);
  EXPECT_EQ(sel.best(2).proc, 2);
  EXPECT_EQ(sel.best(2).start, 0);
  EXPECT_EQ(best_est_proc(sched, 2, scanner, false).proc, 2);
}

TEST(PairSelector, DlsApnMatchesNaiveUnderLinkContention) {
  for (const Topology& topo :
       {Topology::hypercube(3), Topology::ring(5), Topology::mesh(2, 3)}) {
    const RoutingTable routes{topo};
    for (const std::uint64_t seed : {3u, 9u}) {
      RgnosParams p;
      p.num_nodes = 50;
      p.ccr = 2.0;  // communication-heavy: the link probes dominate
      p.parallelism = 4;
      p.seed = seed;
      const TaskGraph g = rgnos_graph(p);

      const NetSchedule naive = reference::naive_dls_apn(g, routes);
      const NetSchedule incr = DlsApnScheduler().run(g, routes);
      expect_identical(naive.tasks(), incr.tasks(),
                       "DLS(APN) on " + topo.name());
      EXPECT_EQ(naive.makespan(), incr.makespan());
    }
  }
}

// One workspace reused across different graphs and algorithms must change
// nothing: workspace state recycles capacity, never results.
TEST(PairSelector, WorkspaceReuseIsObservationallyInert) {
  const SchedulerPtr etf = make_scheduler("ETF");
  const SchedulerPtr dls = make_scheduler("DLS");
  SchedWorkspace shared;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    RgnosParams p;
    p.num_nodes = 45;
    p.ccr = seed == 2 ? 10.0 : 0.5;
    p.parallelism = 2 + static_cast<int>(seed);
    p.seed = seed;
    const TaskGraph g = rgnos_graph(p);
    shared.begin_graph(g);
    expect_identical(etf->run(g, {}), etf->run(g, {}, shared),
                     "shared-vs-fresh ETF");
    expect_identical(dls->run(g, {}), dls->run(g, {}, shared),
                     "shared-vs-fresh DLS");
  }
}

TEST(PairSelector, RunRejectsWorkspaceBoundToAnotherGraph) {
  RgnosParams p;
  p.num_nodes = 10;
  p.ccr = 1.0;
  p.parallelism = 2;
  p.seed = 1;
  const TaskGraph a = rgnos_graph(p);
  p.seed = 2;
  const TaskGraph b = rgnos_graph(p);
  SchedWorkspace ws;
  ws.begin_graph(a);
  EXPECT_THROW(make_scheduler("ETF")->run(b, {}, ws), std::logic_error);
  SchedWorkspace unbound;
  EXPECT_THROW(make_scheduler("DLS")->run(a, {}, unbound), std::logic_error);
}

}  // namespace
}  // namespace tgs
