// Property and adversarial tests of the pair-selection core
// (bnp/bnp_common.h): the closed-form append selector and the cached
// insertion selector must reproduce the naive exhaustive re-evaluation
// BYTE-FOR-BYTE -- same node, same processor, same start, every step --
// over random RGNOS / RGPOS / PSG graphs, tie-heavy FFTs, zero-cost and
// edgeless graphs, bounded and unbounded machines, and under arbitrary
// placement policies. reference_schedulers.h holds the naive ground-truth
// loops (the retired pre-selector implementations).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "reference_schedulers.h"
#include "tgs/bnp/bnp_common.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/rgpos.h"
#include "tgs/gen/traced.h"
#include "tgs/graph/attributes.h"
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
      const std::string tag = g.name() + " procs=" + std::to_string(procs);
      // Insertion mode runs on IncrementalPairSelector ...
      expect_identical(reference::naive_etf(g, opt, true),
                       reference::incremental_etf(g, opt, ws),
                       "insertion ETF " + tag);
      expect_identical(reference::naive_dls(g, opt, true),
                       reference::incremental_dls(g, opt, ws),
                       "insertion DLS " + tag);
      // ... and the production schedulers, append mode, on
      // AppendPairSelector.
      expect_identical(reference::naive_etf(g, opt, false),
                       make_scheduler("ETF")->run(g, opt, ws), "ETF " + tag);
      expect_identical(reference::naive_dls(g, opt, false),
                       make_scheduler("DLS")->run(g, opt, ws), "DLS " + tag);
    }
  }
}

// `g` with every edge cost set to zero: all data is ready anywhere at the
// parents' finish, so proc1 never exists and only the G term is live.
TaskGraph zero_cost(const TaskGraph& g) {
  TaskGraphBuilder b(g.name() + "-zero-cost");
  for (NodeId n = 0; n < g.num_nodes(); ++n) b.add_node(g.weight(n));
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    for (const Adj& c : g.children(n)) b.add_edge(n, c.node, 0);
  return b.finalize();
}

// Independent tasks only (every node an entry node), with repeated
// weights so starts tie across nodes.
TaskGraph entry_only(NodeId v) {
  TaskGraphBuilder b("entry-only" + std::to_string(v));
  for (NodeId n = 0; n < v; ++n) b.add_node(1 + (n * 7) % 5);
  return b.finalize();
}

RgnosParams rgnos(NodeId v, double ccr, int par, std::uint64_t seed) {
  RgnosParams p;
  p.num_nodes = v;
  p.ccr = ccr;
  p.parallelism = par;
  p.seed = seed;
  return p;
}

// Graphs that stress the append selector's closed form: bounded machines
// fill up, so the smallest end time E grows past zero and both of a node's
// terms saturate; unit-weight FFT butterflies tie starts and levels across
// whole ranks; zero-cost edges and entry-only graphs leave no dominant
// parent processor at all.
std::vector<TaskGraph> closed_form_graphs() {
  std::vector<TaskGraph> graphs;
  graphs.push_back(rgnos_graph(rgnos(80, 1.0, 3, 61)));
  graphs.push_back(rgnos_graph(rgnos(80, 10.0, 5, 62)));
  graphs.push_back(rgnos_graph(rgnos(60, 0.1, 1, 63)));
  graphs.push_back(fft_graph(16));
  graphs.push_back(fft_graph(32, 3.0));
  graphs.push_back(zero_cost(rgnos_graph(rgnos(60, 1.0, 4, 64))));
  graphs.push_back(entry_only(30));
  return graphs;
}

TEST(PairSelector, AppendSelectorMatchesNaiveOnTiesAndBoundedMachines) {
  SchedWorkspace ws;
  for (const TaskGraph& g : closed_form_graphs()) {
    ws.begin_graph(g);
    for (const int procs : {2, 4, 64}) {
      SchedOptions opt;
      opt.num_procs = procs;
      const std::string tag = g.name() + " procs=" + std::to_string(procs);
      expect_identical(reference::naive_etf(g, opt, false),
                       make_scheduler("ETF")->run(g, opt, ws), "ETF " + tag);
      expect_identical(reference::naive_dls(g, opt, false),
                       make_scheduler("DLS")->run(g, opt, ws), "DLS " + tag);
    }
  }
}

// FNV-1a over every node's (processor, start), chained through `h`.
std::uint64_t schedule_digest(const Schedule& s, std::uint64_t h) {
  const auto mix = [&h](std::int64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(x >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (NodeId n = 0; n < s.graph().num_nodes(); ++n) {
    mix(s.proc(n));
    mix(s.start(n));
  }
  return h;
}

// Every unclustered pair point of the parameterized core (7 metrics x
// etf|dls x append|insert|hole), digested over closed_form_graphs() on
// unbounded, 2 and 4 processors. The digests are the outputs of the
// exhaustive-argmin pair phase that preceded AppendPairSelector, frozen:
// any change to a selection, a processor choice or a hole fill shows.
TEST(PairSelector, AllPairPointsMatchFrozenDigests) {
  const std::vector<std::pair<const char*, std::uint64_t>> frozen = {
      {"param:sl/etf/append", 0x9937bd4aa3273071ull},
      {"param:bl/etf/append", 0xce154cd25b5eb72dull},
      {"param:tl/etf/append", 0x417f9efa6d03ecf2ull},
      {"param:alap/etf/append", 0xce154cd25b5eb72dull},
      {"param:cp/etf/append", 0x1bf7939eedb54f6aull},
      {"param:bl-tl/etf/append", 0x3d04348464722956ull},
      {"param:alaplist/etf/append", 0xbb47e068debc0bc7ull},
      {"param:sl/dls/append", 0x81e798e1bf0abdacull},
      {"param:bl/dls/append", 0x967c42d0c619c57eull},
      {"param:tl/dls/append", 0xc86120613a28b3fdull},
      {"param:alap/dls/append", 0x967c42d0c619c57eull},
      {"param:cp/dls/append", 0x1db7729753b1ba27ull},
      {"param:bl-tl/dls/append", 0x550e69720a19376dull},
      {"param:alaplist/dls/append", 0x967c42d0c619c57eull},
      {"param:sl/etf/insert", 0x9937bd4aa3273071ull},
      {"param:bl/etf/insert", 0xce154cd25b5eb72dull},
      {"param:tl/etf/insert", 0x417f9efa6d03ecf2ull},
      {"param:alap/etf/insert", 0xce154cd25b5eb72dull},
      {"param:cp/etf/insert", 0x1bf7939eedb54f6aull},
      {"param:bl-tl/etf/insert", 0x3d04348464722956ull},
      {"param:alaplist/etf/insert", 0xbb47e068debc0bc7ull},
      {"param:sl/dls/insert", 0xa0a080f39c319e68ull},
      {"param:bl/dls/insert", 0x3c0452f8eb2afaefull},
      {"param:tl/dls/insert", 0xc86120613a28b3fdull},
      {"param:alap/dls/insert", 0x3c0452f8eb2afaefull},
      {"param:cp/dls/insert", 0xaa9c85b9a72b3fd7ull},
      {"param:bl-tl/dls/insert", 0x28ea55592074bc96ull},
      {"param:alaplist/dls/insert", 0x3c0452f8eb2afaefull},
      {"param:sl/etf/hole", 0x9937bd4aa3273071ull},
      {"param:bl/etf/hole", 0xce154cd25b5eb72dull},
      {"param:tl/etf/hole", 0x417f9efa6d03ecf2ull},
      {"param:alap/etf/hole", 0xce154cd25b5eb72dull},
      {"param:cp/etf/hole", 0x1bf7939eedb54f6aull},
      {"param:bl-tl/etf/hole", 0x3d04348464722956ull},
      {"param:alaplist/etf/hole", 0xbb47e068debc0bc7ull},
      {"param:sl/dls/hole", 0xfd01d31923abac97ull},
      {"param:bl/dls/hole", 0x3c0452f8eb2afaefull},
      {"param:tl/dls/hole", 0xc86120613a28b3fdull},
      {"param:alap/dls/hole", 0x3c0452f8eb2afaefull},
      {"param:cp/dls/hole", 0xda2f8580cc31f86dull},
      {"param:bl-tl/dls/hole", 0x3ca28394322b9e8aull},
      {"param:alaplist/dls/hole", 0x3c0452f8eb2afaefull},
  };
  const std::vector<TaskGraph> graphs = closed_form_graphs();
  SchedWorkspace ws;
  std::size_t checked = 0;
  for (const auto& [spec, want] : frozen) {
    const SchedulerPtr algo = make_scheduler(spec);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const TaskGraph& g : graphs) {
      ws.begin_graph(g);
      for (const int procs : {0, 2, 4}) {
        SchedOptions opt;
        opt.num_procs = procs;
        h = schedule_digest(algo->run(g, opt, ws), h);
      }
    }
    EXPECT_EQ(h, want) << spec;
    ++checked;
  }
  EXPECT_EQ(checked, 42u);
}

// The naive pick under `order`: the exhaustive scan over the ready set.
NodeId naive_pick(const Schedule& sched, const ProcScanner& scanner,
                  const ReadyList& ready, const PairOrder& order) {
  reference::Arrival probe;
  NodeId best = kNoNode;
  Time best_t = 0;
  for (NodeId m : ready.ready()) {
    const Time t =
        reference::best_est_proc_scan(sched, m, scanner, false, probe).start;
    if (best == kNoNode || order.better(m, t, best, best_t)) {
      best = m;
      best_t = t;
    }
  }
  return best;
}

std::vector<int> rank_of(const std::vector<Time>& key) {
  std::vector<NodeId> order(key.size());
  for (NodeId n = 0; n < static_cast<NodeId>(key.size()); ++n) order[n] = n;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return key[a] != key[b] ? key[a] > key[b] : a < b;
  });
  std::vector<int> rank(key.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    rank[order[i]] = static_cast<int>(i);
  return rank;
}

// Drive the selectors with an arbitrary deterministic placement policy
// (not the ETF/DLS argmin) and, after every mutation, check each ready
// node's best pair against the exhaustive processor scan -- and, for
// the append selector, its ETF and DLS picks against the exhaustive
// argmin. This covers invalidation and saturation paths the
// algorithm-shaped runs may never hit on a given graph.
TEST(PairSelector, CachedBestsStayExactUnderArbitraryPlacements) {
  std::vector<TaskGraph> graphs;
  for (const std::uint64_t seed : {5u, 6u})
    graphs.push_back(rgnos_graph(rgnos(40, 1.0, 3, seed)));
  graphs.push_back(fft_graph(16));
  for (const TaskGraph& g : graphs) {
    const std::vector<Time> sl = static_levels(g);
    const std::vector<int> rank = rank_of(sl);
    for (const int procs : {0, 2, 4}) {
      for (const bool insertion : {false, true}) {
        SchedOptions opt;
        opt.num_procs = procs;
        Schedule sched(g, effective_procs(g, opt));
        std::vector<Time> ends;
        ProcScanner scanner(sched, effective_procs(g, opt), ends);
        ReadyList ready(g);
        PairScratch etf_scratch, dls_scratch, insert_scratch;
        const PairOrder etf_order{sl.data(), rank.data(), false};
        const PairOrder dls_order{sl.data(), rank.data(), true};
        AppendPairSelector etf(scanner, etf_order, etf_scratch);
        AppendPairSelector dls(scanner, dls_order, dls_scratch);
        IncrementalPairSelector incr(scanner, insert_scratch);
        const auto admit = [&](NodeId n) {
          if (insertion) {
            incr.node_ready(n);
          } else {
            etf.node_ready(n);
            dls.node_ready(n);
          }
        };
        for (NodeId n : ready.ready()) admit(n);

        const std::string tag = g.name() + " procs=" + std::to_string(procs) +
                                " insertion=" + std::to_string(insertion);
        reference::Arrival probe;
        std::uint64_t h = static_cast<std::uint64_t>(procs + 7) *
                          0x9E3779B97F4A7C15ull;
        while (!ready.empty()) {
          for (NodeId m : ready.ready()) {
            const ProcChoice want = reference::best_est_proc_scan(
                sched, m, scanner, insertion, probe);
            const ProcChoice got = insertion ? incr.best(m) : etf.best(m);
            ASSERT_EQ(got.proc, want.proc) << tag << " node " << m;
            ASSERT_EQ(got.start, want.start) << tag << " node " << m;
            if (!insertion) {
              ASSERT_EQ(append_est(scanner, arrival_of(sched, m)), want.start)
                  << tag << " node " << m;
              ASSERT_EQ(dls.best(m).proc, want.proc) << tag << " node " << m;
            }
          }
          if (!insertion) {
            ASSERT_EQ(etf.pick(), naive_pick(sched, scanner, ready, etf_order))
                << tag;
            ASSERT_EQ(dls.pick(), naive_pick(sched, scanner, ready, dls_order))
                << tag;
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
          if (insertion) {
            incr.node_placed(n, q);
          } else {
            etf.node_placed(q);
            dls.node_placed(q);
          }
          ready.mark_scheduled(n);
          for (const Adj& c : g.children(n))
            if (ready.is_ready(c.node)) admit(c.node);
        }
      }
    }
  }
}

// Adversarial: a placement that fills a node's best processor while a
// fresh processor stands open must move the node's best pair onto the
// fresh processor -- in both selectors.
TEST(PairSelector, NewlyOpenedProcessorInvalidatesCachedPair) {
  // Three independent tasks; no edges, so every EST is pure timeline.
  TaskGraphBuilder b("adversarial");
  b.add_node(10);
  b.add_node(1);
  b.add_node(1);
  const TaskGraph g = b.finalize();
  const std::vector<Time> key(3, 0);
  const std::vector<int> rank = {0, 1, 2};

  for (const bool insertion : {false, true}) {
    Schedule sched(g, 3);
    std::vector<Time> ends;
    ProcScanner scanner(sched, 3, ends);
    ReadyList ready(g);
    PairScratch scratch;
    AppendPairSelector append(scanner, {key.data(), rank.data(), false},
                              scratch);
    PairScratch insert_scratch;
    IncrementalPairSelector incr(scanner, insert_scratch);
    const auto best = [&](NodeId n) {
      return insertion ? incr.best(n) : append.best(n);
    };
    const auto place = [&](NodeId n, ProcId p) {
      sched.place(n, p, 0);
      scanner.note_placement(p);
      if (insertion)
        incr.node_placed(n, p);
      else
        append.node_placed(p);
      ready.mark_scheduled(n);
    };
    for (NodeId n : ready.ready()) {
      if (insertion)
        incr.node_ready(n);
      else
        append.node_ready(n);
    }

    // Initially only processor 0 is in the scan window.
    EXPECT_EQ(best(1).proc, 0);
    EXPECT_EQ(best(1).start, 0);
    if (!insertion) {
      EXPECT_EQ(append.pick(), 0);
    }

    // Place node 0 on processor 0: the window grows to {0, 1} and nodes
    // 1, 2 (best on the now-busy processor 0) must move to the fresh one.
    place(0, 0);
    EXPECT_EQ(scanner.scan_count(), 2);
    EXPECT_EQ(best(1).proc, 1);
    EXPECT_EQ(best(1).start, 0);
    EXPECT_EQ(best(2).proc, 1);
    EXPECT_EQ(best(2).start, 0);
    if (!insertion) {
      EXPECT_EQ(append.pick(), 1);
    }

    // Occupy the fresh processor 1: node 2's best sits on it, so the
    // placement must push node 2 onto newly opened processor 2, not back
    // onto processor 0 (busy until t=10).
    place(1, 1);
    EXPECT_EQ(scanner.scan_count(), 3);
    EXPECT_EQ(best(2).proc, 2);
    EXPECT_EQ(best(2).start, 0);
    if (!insertion) {
      EXPECT_EQ(append_est(scanner, arrival_of(sched, 2)), 0);
    }
    reference::Arrival probe;
    EXPECT_EQ(
        reference::best_est_proc_scan(sched, 2, scanner, insertion, probe).proc,
        2);
    EXPECT_EQ(
        best_est_proc(scanner, 2, arrival_of(sched, 2), insertion).proc, 2);
  }
}

// best_est_proc against the exhaustive scan of reference_proc_choice.h, in
// both placement modes, for every ready node after every placement of an
// arbitrary policy that leaves holes: a random ready node goes to a random
// processor of the window, either into the first gap that fits or past
// the end after a short delay. Unit weights and zero costs tie starts
// across processors, and bounded machines keep the window narrower than
// the limit until every processor is used. The counters check that each
// case the pruned choice treats apart was reached.
TEST(BestEstProc, MatchesExhaustiveScanOnSchedulesWithHoles) {
  std::vector<TaskGraph> graphs;
  graphs.push_back(rgnos_graph(rgnos(60, 1.0, 3, 71)));
  graphs.push_back(rgnos_graph(rgnos(60, 10.0, 5, 72)));
  graphs.push_back(rgnos_graph(rgnos(60, 0.1, 1, 73)));
  graphs.push_back(fft_graph(16));
  graphs.push_back(zero_cost(rgnos_graph(rgnos(50, 1.0, 4, 74))));
  graphs.push_back(entry_only(24));
  std::size_t no_proc1 = 0, proc1_idle = 0, narrow = 0, ties = 0, in_gap = 0;
  for (const TaskGraph& g : graphs) {
    for (const int procs : {2, 3, 8, 64}) {
      Schedule sched(g, procs);
      std::vector<Time> ends;
      ProcScanner scanner(sched, procs, ends);
      ReadyList ready(g);
      reference::Arrival ref;
      std::uint64_t h =
          static_cast<std::uint64_t>(procs) * 0x9E3779B97F4A7C15ull;
      const auto draw = [&h](std::uint64_t bound) {
        h = h * 6364136223846793005ull + 1442695040888963407ull;
        return (h >> 33) % bound;
      };
      const std::string tag = g.name() + " procs=" + std::to_string(procs);
      while (!ready.empty()) {
        const int count = scanner.scan_count();
        for (NodeId m : ready.ready()) {
          const ArrivalInfo a = arrival_of(sched, m);
          reference::arrival_into(sched, m, ref);
          for (const bool insertion : {false, true}) {
            const ProcChoice want = reference::best_est_proc_scan(
                sched, m, count, insertion, ref);
            const ProcChoice got = best_est_proc(scanner, m, a, insertion);
            ASSERT_EQ(got.proc, want.proc)
                << tag << " node " << m << " insertion " << insertion;
            ASSERT_EQ(got.start, want.start)
                << tag << " node " << m << " insertion " << insertion;
            int at_best = 0;
            for (ProcId p = 0; p < count; ++p)
              at_best += sched.earliest_start_on(p, ref.ready_on(p),
                                                 g.weight(m), insertion) ==
                         want.start;
            ties += at_best > 1;
            in_gap += insertion && want.proc != a.proc1 &&
                      want.start < sched.timeline(want.proc).end_time();
          }
          no_proc1 += a.proc1 == kNoProc;
          proc1_idle += a.proc1 != kNoProc &&
                        scanner.ends().first_at_most(a.max1, count) == a.proc1;
          narrow += count < procs;
        }
        const NodeId n = ready.ready()[draw(ready.size())];
        const ProcId q = static_cast<ProcId>(draw(count));
        const Time dr = sched.data_ready(n, q);
        const Time t =
            draw(2) == 0
                ? sched.earliest_start_on(q, dr, g.weight(n), true)
                : sched.earliest_start_on(q, dr, g.weight(n), false) +
                      static_cast<Time>(draw(4));
        sched.place(n, q, t);
        scanner.note_placement(q);
        ready.mark_scheduled(n);
      }
    }
  }
  EXPECT_GT(no_proc1, 0u);
  EXPECT_GT(proc1_idle, 0u);
  EXPECT_GT(narrow, 0u);
  EXPECT_GT(ties, 0u);
  EXPECT_GT(in_gap, 0u);
}

// Two network schedules are the same schedule: every task, every message
// in commit order and every hop of every message.
void expect_identical_net(const NetSchedule& a, const NetSchedule& b,
                          const std::string& what) {
  expect_identical(a.tasks(), b.tasks(), what);
  ASSERT_EQ(a.messages().size(), b.messages().size()) << what;
  for (std::size_t i = 0; i < a.messages().size(); ++i) {
    const Message& x = a.messages()[i];
    const Message& y = b.messages()[i];
    const std::string at = what + ": message " + std::to_string(i);
    ASSERT_EQ(x.src, y.src) << at;
    ASSERT_EQ(x.dst, y.dst) << at;
    ASSERT_EQ(x.size, y.size) << at;
    ASSERT_EQ(x.depart_after, y.depart_after) << at;
    ASSERT_EQ(x.arrival, y.arrival) << at;
    ASSERT_EQ(x.hop_count, y.hop_count) << at;
    const std::span<const MsgHop> hx = a.hops(x);
    const std::span<const MsgHop> hy = b.hops(y);
    for (std::size_t h = 0; h < hx.size(); ++h) {
      ASSERT_EQ(hx[h].link, hy[h].link) << at << " hop " << h;
      ASSERT_EQ(hx[h].start, hy[h].start) << at << " hop " << h;
      ASSERT_EQ(hx[h].end, hy[h].end) << at << " hop " << h;
    }
  }
}

// DLS(APN)'s bound-and-stop probes against the exhaustive (node,
// processor) scan: communication-light and communication-heavy RGNOS
// graphs, a v = 150 graph, zero-cost edges (every arrival is the parent's
// finish), independent tasks (no probes at all) and a unit-weight FFT
// whose equal static levels tie dynamic levels.
TEST(PairSelector, DlsApnMatchesNaiveUnderLinkContention) {
  std::vector<TaskGraph> graphs;
  for (const std::uint64_t seed : {3u, 9u})
    graphs.push_back(rgnos_graph(rgnos(50, 2.0, 4, seed)));
  graphs.push_back(rgnos_graph(rgnos(70, 0.1, 3, 5)));
  graphs.push_back(rgnos_graph(rgnos(70, 10.0, 3, 6)));
  graphs.push_back(rgnos_graph(rgnos(150, 1.0, 3, 7)));
  graphs.push_back(zero_cost(rgnos_graph(rgnos(60, 1.0, 4, 8))));
  graphs.push_back(entry_only(20));
  graphs.push_back(fft_graph(16));
  // The probe work is pinned as well: a probe that stops before the
  // runner-up really beats it, or resumes more parents than it needs,
  // still yields the same schedule, only slower. Re-pin on purpose when
  // the sweep order or the stop rule changes.
  struct Pin {
    Topology topo;
    std::uint64_t parent_sweeps, picks;
  };
  for (const Pin& pin : {Pin{Topology::hypercube(3), 14570, 4776},
                         Pin{Topology::ring(5), 14368, 6173},
                         Pin{Topology::mesh(2, 3), 14060, 5724}}) {
    const RoutingTable routes{pin.topo};
    SchedWorkspace ws;
    for (const TaskGraph& g : graphs) {
      ws.begin_graph(g);
      expect_identical_net(reference::naive_dls_apn(g, routes),
                           make_apn_scheduler("DLS")->run(g, routes, ws),
                           "DLS(APN) " + g.name() + " on " + pin.topo.name());
    }
    EXPECT_EQ(ws.apn_scratch().parent_sweeps, pin.parent_sweeps)
        << pin.topo.name();
    EXPECT_EQ(ws.apn_scratch().picks, pin.picks) << pin.topo.name();
  }
}

// One workspace reused across graphs of different sizes and across all 15
// algorithms must change nothing: workspace state recycles capacity and
// caches attributes of the bound graph only, never results. Each graph
// meets the buffers a larger or a smaller one left behind.
TEST(PairSelector, WorkspaceReuseIsObservationallyInert) {
  const std::vector<SchedulerPtr> algos = make_unc_and_bnp_schedulers();
  const std::vector<ApnSchedulerPtr> apn_algos = make_apn_schedulers();
  ASSERT_EQ(algos.size() + apn_algos.size(), 15u);
  const RoutingTable routes{Topology::hypercube(3)};
  SchedWorkspace shared;
  const std::vector<std::pair<NodeId, std::uint64_t>> sizes = {
      {45, 1}, {80, 2}, {20, 3}};
  for (const auto& [v, seed] : sizes) {
    RgnosParams p;
    p.num_nodes = v;
    p.ccr = seed == 2 ? 10.0 : 0.5;
    p.parallelism = 2 + static_cast<int>(seed);
    p.seed = seed;
    const TaskGraph g = rgnos_graph(p);
    shared.begin_graph(g);
    for (const SchedulerPtr& algo : algos)
      expect_identical(algo->run(g, {}), algo->run(g, {}, shared),
                       "shared-vs-fresh " + algo->name() + " v=" +
                           std::to_string(v));
    for (const ApnSchedulerPtr& algo : apn_algos)
      expect_identical_net(algo->run(g, routes), algo->run(g, routes, shared),
                           "shared-vs-fresh APN " + algo->name() + " v=" +
                               std::to_string(v));
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
  const RoutingTable routes{Topology::ring(4)};
  EXPECT_THROW(make_apn_scheduler("MH")->run(b, routes, ws), std::logic_error);
  EXPECT_THROW(make_apn_scheduler("BSA")->run(a, routes, unbound),
               std::logic_error);
}

}  // namespace
}  // namespace tgs
