// tgs_perf -- google-benchmark suite over the scheduling hot paths. Gated
// behind -DTGS_BUILD_PERF=ON (needs a system libbenchmark).
//
// The *_Naive benchmarks run the retired exhaustive pair-selection loops
// kept in tests/reference_schedulers.h, BM_BestEstProc_Scan the exhaustive
// processor scan of tests/reference_proc_choice.h,
// BM_Net_ProbePerDestination the
// per-destination route probe of tests/reference_net.h, BM_Ez_Reference
// the frozen EZ
// of tests/reference_named.h, BM_Bsa_Reference the frozen BSA of
// tests/reference_bsa.h, BM_GraphFromString_Reference the frozen
// istream tgs1 reader of tests/reference_graph_io.h,
// BM_ParseRequest_Reference the frozen JSON parser of
// tests/reference_json.h and BM_ReadyList_Reference the frozen sorted
// ready list of tests/reference_ready_list.h, so each speedup over
// the retired code is measured inside one binary; the committed
// BENCH_schedulers.json at the repo root is the baseline CI compares
// against (tools/check_perf_regression.py, >2x real_time fails).
//
// Regenerate the baseline with:
//   ./build/tgs_perf --benchmark_out=BENCH_schedulers.json
//                    --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <vector>

#include "reference_bsa.h"
#include "reference_graph_io.h"
#include "reference_json.h"
#include "reference_named.h"
#include "reference_net.h"
#include "reference_proc_choice.h"
#include "reference_ready_list.h"
#include "reference_schedulers.h"
#include "reference_timeline.h"
#include "tgs/bnp/bnp_common.h"
#include "tgs/exec/jsonl.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/structured.h"
#include "tgs/gen/traced.h"
#include "tgs/graph/attributes.h"
#include "tgs/graph/graph_io.h"
#include "tgs/harness/registry.h"
#include "tgs/list/ready_list.h"
#include "tgs/net/routing.h"
#include "tgs/net/topology.h"
#include "tgs/sched/timeline.h"
#include "tgs/sched/workspace.h"
#include "tgs/serve/cache.h"
#include "tgs/serve/protocol.h"
#include "tgs/util/mem.h"

namespace tgs {
namespace {

TaskGraph bench_graph(NodeId v) {
  RgnosParams p;
  p.num_nodes = v;
  p.ccr = 1.0;
  p.parallelism = 3;
  p.seed = 1998 + v;  // fixed per size: every run benches the same graph
  return rgnos_graph(p);
}

// ------------------------------------------------- pair schedulers -------

void BM_Etf(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  const SchedulerPtr algo = make_scheduler("ETF");
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(algo->run(g, {}, ws).makespan());
}
BENCHMARK(BM_Etf)->Arg(100)->Arg(300)->Arg(500);

void BM_Etf_Naive(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(reference::naive_etf(g, {}).makespan());
}
BENCHMARK(BM_Etf_Naive)->Arg(100)->Arg(300)->Arg(500);

void BM_Dls(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  const SchedulerPtr algo = make_scheduler("DLS");
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(algo->run(g, {}, ws).makespan());
}
BENCHMARK(BM_Dls)->Arg(100)->Arg(300)->Arg(500);

void BM_Dls_Naive(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(reference::naive_dls(g, {}).makespan());
}
BENCHMARK(BM_Dls_Naive)->Arg(100)->Arg(300)->Arg(500);

void BM_DlsApn(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  const RoutingTable routes{Topology::hypercube(3)};
  const ApnSchedulerPtr algo = make_apn_scheduler("DLS");
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(algo->run(g, routes, ws).makespan());
}
BENCHMARK(BM_DlsApn)->Arg(100)->Arg(500);

void BM_DlsApn_Naive(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  const RoutingTable routes{Topology::hypercube(3)};
  for (auto _ : state)
    benchmark::DoNotOptimize(reference::naive_dls_apn(g, routes).makespan());
}
BENCHMARK(BM_DlsApn_Naive)->Arg(100);

// MCP is the fast-BNP yardstick (insertion-based, no pair search); it
// bounds how much of ETF/DLS time is pair selection vs shared machinery.
void BM_Mcp(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  const SchedulerPtr algo = make_scheduler("MCP");
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(algo->run(g, {}, ws).makespan());
}
BENCHMARK(BM_Mcp)->Arg(500);

// Workspace amortization: the same ETF run paying a fresh workspace (and
// its attribute recomputation + allocations) on every call.
void BM_Etf_FreshWorkspace(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  const SchedulerPtr etf = make_scheduler("ETF");
  for (auto _ : state)
    benchmark::DoNotOptimize(etf->run(g, {}).makespan());
}
BENCHMARK(BM_Etf_FreshWorkspace)->Arg(500);

void BM_Mh_Apn(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  const RoutingTable routes{Topology::hypercube(3)};
  const ApnSchedulerPtr algo = make_apn_scheduler("MH");
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(algo->run(g, routes, ws).makespan());
}
BENCHMARK(BM_Mh_Apn)->Arg(100)->Arg(300);

// BSA: each tentative migration rebuilds into a reset spare schedule.
void BM_Bsa_Apn(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  const RoutingTable routes{Topology::hypercube(3)};
  const ApnSchedulerPtr algo = make_apn_scheduler("BSA");
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(algo->run(g, routes, ws).makespan());
}
BENCHMARK(BM_Bsa_Apn)->Arg(100)->Arg(300)->Arg(500);

// The frozen BSA (tests/reference_bsa.h): a fresh schedule per migration.
void BM_Bsa_Reference(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  const RoutingTable routes{Topology::hypercube(3)};
  for (auto _ : state)
    benchmark::DoNotOptimize(reference::original_bsa(g, routes).makespan());
}
BENCHMARK(BM_Bsa_Reference)->Arg(300);

// EZ: edge zeroing with each tentative merge evaluated over per-edge costs
// under the current clustering, stopping once the running makespan
// exceeds the best so far.
void BM_Ez(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  const SchedulerPtr algo = make_scheduler("EZ");
  SchedWorkspace ws;
  ws.begin_graph(g);
  for (auto _ : state)
    benchmark::DoNotOptimize(algo->run(g, {}, ws).makespan());
}
BENCHMARK(BM_Ez)->Arg(300)->Arg(500);

// The frozen pre-refactor EZ (tests/reference_named.h): a DisjointSets
// snapshot, a dense renumbering and a full makespan evaluation per edge.
void BM_Ez_Reference(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(reference::original_ez(g).makespan());
}
BENCHMARK(BM_Ez_Reference)->Arg(500);

// ------------------------------------------------------- processor choice --

// A half-placed schedule on Arg processors: the first 1000 nodes of a
// v = 2000 bench graph, each put where insertion best_est_proc puts it (so
// the timelines hold holes), and the nodes ready next with their frozen
// arrivals in both forms. Every iteration chooses a processor for each
// ready node under append and under insertion placement. The nodes are
// placed smallest ready id first, from the frozen sorted list.
struct ProcChoiceBench {
  explicit ProcChoiceBench(int procs)
      : g(bench_graph(2000)), sched(g, procs), scanner(sched, procs, pair) {
    reference::SortedReadyList rl(g);
    while (sched.placed_count() < 1000) {
      const NodeId n = rl.ready().front();
      const ProcChoice c = best_est_proc(scanner, n, arrival_of(sched, n),
                                         /*insertion=*/true);
      sched.place(n, c.proc, c.start);
      scanner.note_placement(c.proc);
      rl.mark_scheduled(n);
    }
    for (NodeId n : rl.ready()) {
      ready.push_back(n);
      arrival.push_back(arrival_of(sched, n));
      ref.emplace_back();
      reference::arrival_into(sched, n, ref.back());
    }
  }

  TaskGraph g;
  Schedule sched;
  PairScratch pair;
  ProcScanner scanner;
  std::vector<NodeId> ready;
  std::vector<ArrivalInfo> arrival;
  std::vector<reference::Arrival> ref;
};

void BM_BestEstProc(benchmark::State& state) {
  const ProcChoiceBench b(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Time acc = 0;
    for (std::size_t i = 0; i < b.ready.size(); ++i)
      for (const bool insertion : {false, true})
        acc += best_est_proc(b.scanner, b.ready[i], b.arrival[i], insertion)
                   .start;
    benchmark::DoNotOptimize(acc);
  }
  state.counters["ready"] = static_cast<double>(b.ready.size());
}
BENCHMARK(BM_BestEstProc)->Arg(64);

void BM_BestEstProc_Scan(benchmark::State& state) {
  const ProcChoiceBench b(static_cast<int>(state.range(0)));
  const int count = b.scanner.scan_count();
  for (auto _ : state) {
    Time acc = 0;
    for (std::size_t i = 0; i < b.ready.size(); ++i)
      for (const bool insertion : {false, true})
        acc += reference::best_est_proc_scan(b.sched, b.ready[i], count,
                                             insertion, b.ref[i])
                   .start;
    benchmark::DoNotOptimize(acc);
  }
  state.counters["ready"] = static_cast<double>(b.ready.size());
}
BENCHMARK(BM_BestEstProc_Scan)->Arg(64);

// ------------------------------------------------------------ graph ingest --

// The tgs_serve request path before any scheduling: a v=500 bench graph is
// ~19k edge lines, ~290 KB of tgs1 text.
void BM_GraphFromString(benchmark::State& state) {
  const std::string text =
      graph_to_string(bench_graph(static_cast<NodeId>(state.range(0))));
  for (auto _ : state)
    benchmark::DoNotOptimize(graph_from_string(text).num_edges());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_GraphFromString)->Arg(100)->Arg(500);

// The frozen istringstream + getline + strtoll reader with the two-sort
// CSR build it replaced.
void BM_GraphFromString_Reference(benchmark::State& state) {
  const std::string text =
      graph_to_string(bench_graph(static_cast<NodeId>(state.range(0))));
  for (auto _ : state)
    benchmark::DoNotOptimize(reference::graph_from_string(text).num_edges_);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_GraphFromString_Reference)->Arg(500);

// TaskGraphBuilder::finalize alone: the counting-sort CSR build, entry and
// exit sets and the topological order. Filling the builder is not timed.
void BM_Finalize(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    TaskGraphBuilder b(g.name());
    b.reserve(g.num_nodes(), g.num_edges());
    for (NodeId i = 0; i < g.num_nodes(); ++i) b.add_node(g.weight(i));
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      for (const Adj& c : g.children(u)) b.add_edge(u, c.node, c.cost);
    state.ResumeTiming();
    benchmark::DoNotOptimize(b.finalize().num_edges());
  }
}
BENCHMARK(BM_Finalize)->Arg(500);

// parse_request on a schedule request line carrying the graph, as
// tgs_client writes it: the JSON scan and the graph string it yields.
void BM_ParseRequest(benchmark::State& state) {
  const std::string text =
      graph_to_string(bench_graph(static_cast<NodeId>(state.range(0))));
  const std::string line =
      JsonObject().add("id", "b").add("algo", "MCP").add("graph", text).str();
  for (auto _ : state)
    benchmark::DoNotOptimize(parse_request(line).graph_text.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_ParseRequest)->Arg(500);

// The same line through the frozen byte-at-a-time JSON parser, reading the
// graph string out of its document as parse_request does.
void BM_ParseRequest_Reference(benchmark::State& state) {
  const std::string text =
      graph_to_string(bench_graph(static_cast<NodeId>(state.range(0))));
  const std::string line =
      JsonObject().add("id", "b").add("algo", "MCP").add("graph", text).str();
  for (auto _ : state) {
    reference::ReferenceJson doc = reference::json_parse(line);
    const std::string graph = std::move(doc.obj_["graph"].str_);
    benchmark::DoNotOptimize(graph.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_ParseRequest_Reference)->Arg(500);

// What tgs_serve's reader does with a graph text it has seen before,
// instead of graph_from_string and graph_fingerprint: the keyed hash of
// the text and a hit in the graph memo.
void BM_GraphMemoProbe(benchmark::State& state) {
  const std::string text =
      graph_to_string(bench_graph(static_cast<NodeId>(state.range(0))));
  GraphMemo memo(1);
  memo.insert(memo.key_of(text), GraphFingerprint{});
  GraphFingerprint fp;
  for (auto _ : state)
    benchmark::DoNotOptimize(memo.lookup(memo.key_of(text), &fp));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_GraphMemoProbe)->Arg(500);

// ------------------------------------------------------------ giant tier --

// Traced kernels at giant dims, 64 procs, warm workspace with pre-warmed
// shared attributes -- the same protocol as the giant_sweep experiment, so
// its numbers and these cross-check. Each benchmark also reports
// per-iteration heap traffic (util/mem.h): the memory metric regresses
// loudly here even when wall time hides it behind runner noise.
void giant_bench(benchmark::State& state, const TaskGraph& g,
                 const char* algo_name) {
  const SchedulerPtr algo = make_scheduler(algo_name);
  SchedWorkspace ws;
  ws.begin_graph(g);
  ws.attrs().static_levels();
  ws.attrs().alap_times();
  SchedOptions opt;
  opt.num_procs = 64;
  // One untimed run grows the workspace, so allocs and alloc_kb count the
  // steady state rather than averaging in the cold first run.
  benchmark::DoNotOptimize(algo->run(g, opt, ws).makespan());
  AllocMeter meter;
  for (auto _ : state)
    benchmark::DoNotOptimize(algo->run(g, opt, ws).makespan());
  state.counters["v"] = static_cast<double>(g.num_nodes());
  state.counters["allocs"] = benchmark::Counter(
      static_cast<double>(meter.count()), benchmark::Counter::kAvgIterations);
  state.counters["alloc_kb"] = benchmark::Counter(
      static_cast<double>(meter.bytes()) / 1024.0,
      benchmark::Counter::kAvgIterations);
}

// Cholesky: Arg is the matrix dimension, v = dim(dim+1)/2, so 141 -> ~10k
// nodes and 446 -> ~100k (the tier's acceptance size).
void giant_cholesky(benchmark::State& state, const char* algo_name) {
  giant_bench(state, cholesky_graph(static_cast<int>(state.range(0)), 1.0),
              algo_name);
}

void BM_Giant_Mcp(benchmark::State& state) { giant_cholesky(state, "MCP"); }
BENCHMARK(BM_Giant_Mcp)->Arg(141)->Arg(446)->Unit(benchmark::kMillisecond);

void BM_Giant_Hlfet(benchmark::State& state) { giant_cholesky(state, "HLFET"); }
BENCHMARK(BM_Giant_Hlfet)->Arg(141)->Arg(446)->Unit(benchmark::kMillisecond);

void BM_Giant_Ish(benchmark::State& state) { giant_cholesky(state, "ISH"); }
BENCHMARK(BM_Giant_Ish)->Arg(141)->Arg(446)->Unit(benchmark::kMillisecond);

void BM_Giant_Etf(benchmark::State& state) { giant_cholesky(state, "ETF"); }
BENCHMARK(BM_Giant_Etf)->Arg(141)->Arg(446)->Unit(benchmark::kMillisecond);

// FFT butterflies: Arg is the point count n, v = (n/2) log2(n), so 4096 ->
// 24,576 nodes, 2048 ready at once. Thousands of ready nodes share one
// best processor here, so a pair phase that does O(ready) work per
// placement is ~100x HLFET; CI gates the ETF/DLS ratios against HLFET.
void giant_fft(benchmark::State& state, const char* algo_name) {
  giant_bench(state, fft_graph(static_cast<int>(state.range(0)), 1.0),
              algo_name);
}

void BM_GiantFft_Hlfet(benchmark::State& state) { giant_fft(state, "HLFET"); }
BENCHMARK(BM_GiantFft_Hlfet)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_GiantFft_Etf(benchmark::State& state) { giant_fft(state, "ETF"); }
BENCHMARK(BM_GiantFft_Etf)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_GiantFft_Dls(benchmark::State& state) { giant_fft(state, "DLS"); }
BENCHMARK(BM_GiantFft_Dls)->Arg(4096)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ net layer --

// A contended NetSchedule: many messages fanning out of one processor over
// hypercube(3), so several links hold long reservation lists.
NetSchedule contended_net(const TaskGraph& g, const RoutingTable& routes) {
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  const int p = routes.topology().num_procs();
  for (NodeId w = 1; w < g.num_nodes() - 1; ++w)
    reference::commit_message(ns, 0, w, static_cast<int>(w * 5 % p));
  return ns;
}

// One-to-all routing-tree sweep vs probing every destination separately:
// the sweep touches each of the 7 tree links once; the per-destination
// loop re-walks 12 route hops (the probes of MH / DLS(APN) / BSA are
// exactly this access pattern).
void BM_Net_ProbeArrivalAll(benchmark::State& state) {
  const TaskGraph g = fork_join(400, 10, 9);
  const RoutingTable routes{Topology::hypercube(3)};
  const NetSchedule ns = contended_net(g, routes);
  const int p = routes.topology().num_procs();
  std::vector<Time> out(static_cast<std::size_t>(p));
  for (auto _ : state) {
    Time acc = 0;
    for (int src = 0; src < p; ++src) {
      ns.probe_arrival_all(src, 9, 40 * src, out);
      acc += out[p - 1];
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Net_ProbeArrivalAll);

void BM_Net_ProbePerDestination(benchmark::State& state) {
  const TaskGraph g = fork_join(400, 10, 9);
  const RoutingTable routes{Topology::hypercube(3)};
  const NetSchedule ns = contended_net(g, routes);
  const int p = routes.topology().num_procs();
  for (auto _ : state) {
    Time acc = 0;
    for (int src = 0; src < p; ++src)
      for (int dst = 0; dst < p; ++dst)
        acc += reference::probe_arrival(ns, src, dst, 9, 40 * src);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Net_ProbePerDestination);

// Building the contended net from scratch: every message of the fan-out
// is routed (back-to-front route walk into the hop arena, then one fit and
// occupy per hop) onto link timelines that grow to ~range/3 reservations.
void BM_Net_Commit(benchmark::State& state) {
  const TaskGraph g = fork_join(static_cast<NodeId>(state.range(0)), 10, 9);
  const RoutingTable routes{Topology::hypercube(3)};
  for (auto _ : state) {
    const NetSchedule ns = contended_net(g, routes);
    benchmark::DoNotOptimize(ns.messages().size());
  }
}
BENCHMARK(BM_Net_Commit)->Arg(400)->Arg(1500);

// Routing construction: one BFS per source filling the routing trees.
void BM_Routing_Build(benchmark::State& state) {
  const Topology topo = Topology::ring(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const RoutingTable routes(topo);
    benchmark::DoNotOptimize(routes.distance(0, 1));
  }
}
BENCHMARK(BM_Routing_Build)->Arg(256)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------ data structures --

// Release back-to-front: the owner searched for always sits at the tail,
// so the unhinted variant pays its full linear scan while the hinted one
// binary-searches straight to it.
void BM_Timeline_OccupyRelease(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Timeline tl;
    for (int i = 0; i < n; ++i) tl.occupy(i, i * 10, 8);
    for (int i = n - 1; i >= 0; --i) tl.release(i, i * 10);  // hinted
    benchmark::DoNotOptimize(tl.size());
  }
}
BENCHMARK(BM_Timeline_OccupyRelease)->Arg(256)->Arg(1024);

void BM_Timeline_ReleaseLinear(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Timeline tl;
    for (int i = 0; i < n; ++i) tl.occupy(i, i * 10, 8);
    for (int i = n - 1; i >= 0; --i) tl.release(i);  // unhinted O(n) scan
    benchmark::DoNotOptimize(tl.size());
  }
}
BENCHMARK(BM_Timeline_ReleaseLinear)->Arg(256)->Arg(1024);

void BM_Timeline_InsertionFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Timeline tl;
  for (int i = 0; i < n; ++i) tl.occupy(i, i * 10, 8);  // gaps of 2
  for (auto _ : state) {
    Time acc = 0;
    for (int i = 0; i < n; ++i)
      acc += tl.earliest_fit(i * 7 % (n * 10), 2, /*insertion=*/true);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Timeline_InsertionFit)->Arg(1024)->Arg(4096);

// The contended-link pattern the gap index exists for: a packed timeline
// where the only gap large enough sits near the tail, so the flat scan
// walks almost the whole reservation list per probe while the gap tree
// descends to it. 1k/4k intervals is what APN link timelines hold at
// v=500 (the hot hypercube link holds ~8.7k).
template <typename TL>
void packed_timeline(TL& tl, int n) {
  for (int i = 0; i < n; ++i)
    if (i != (n * 9) / 10) tl.occupy(i, i * 10, 10);  // one idle slot
}

void BM_Timeline_PackedFit_Gap(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Timeline tl;
  packed_timeline(tl, n);
  for (auto _ : state) {
    Time acc = 0;
    for (int i = 0; i < 64; ++i)
      acc += tl.earliest_fit(i * 13 % 1000, 5, /*insertion=*/true);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Timeline_PackedFit_Gap)->Arg(1024)->Arg(4096);

void BM_Timeline_PackedFit_Scan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  reference::FlatTimeline tl;
  packed_timeline(tl, n);
  for (auto _ : state) {
    Time acc = 0;
    for (int i = 0; i < 64; ++i)
      acc += tl.earliest_fit(i * 13 % 1000, 5, /*insertion=*/true);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_Timeline_PackedFit_Scan)->Arg(1024)->Arg(4096);

// Ready-set bookkeeping alone: every iteration builds the list and
// schedules the whole graph, smallest ready id first (the sorted list's
// front()), so the production set and the frozen sorted list go through
// the same ready sets. Arg 500 is the v = 500 bench graph; Arg 4096 is
// FFT-4096, 24,576 nodes with 2048 ready at once, where every sorted
// erase moves thousands of ids.
template <class List>
void ready_list_churn(benchmark::State& state) {
  const int arg = static_cast<int>(state.range(0));
  const TaskGraph g = arg == 4096 ? fft_graph(arg, 1.0)
                                  : bench_graph(static_cast<NodeId>(arg));
  std::vector<NodeId> order;
  for (reference::SortedReadyList rl(g); !rl.empty();) {
    order.push_back(rl.ready().front());
    rl.mark_scheduled(order.back());
  }
  for (auto _ : state) {
    List ready(g);
    for (NodeId n : order) ready.mark_scheduled(n);
    benchmark::DoNotOptimize(ready.empty());
  }
}

void BM_ReadyList_Churn(benchmark::State& state) {
  ready_list_churn<ReadyList>(state);
}
BENCHMARK(BM_ReadyList_Churn)->Arg(500)->Arg(4096);

void BM_ReadyList_Reference(benchmark::State& state) {
  ready_list_churn<reference::SortedReadyList>(state);
}
BENCHMARK(BM_ReadyList_Reference)->Arg(4096);

void BM_StaticLevels(benchmark::State& state) {
  const TaskGraph g = bench_graph(static_cast<NodeId>(state.range(0)));
  std::vector<Time> buf;
  for (auto _ : state) {
    static_levels_into(g, buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_StaticLevels)->Arg(500);

}  // namespace
}  // namespace tgs

BENCHMARK_MAIN();
