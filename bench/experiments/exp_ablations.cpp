// Ablation experiments (paper §6.4.1/§7 observations, plus checks of this
// implementation's own design choices):
//
//  ablate_bb        -- how much of the branch-and-bound search does the
//                      pruning machinery (bounds + incumbent seeding +
//                      duplicate/symmetry elimination) save? Full search
//                      vs bounds-disabled enumeration on small RGBOS
//                      instances. Both searches use deterministic
//                      node-expansion budgets and the round-synchronous
//                      parallel B&B (--bb-threads), so states-expanded
//                      counts are bit-reproducible at any thread count.
//  ablate_ccr       -- "degradations/NSL in general increase with CCRs":
//                      NSL of all 15 algorithms over CCR at fixed v.
//  ablate_insertion -- "insertion is better than non-insertion": HLFET vs
//                      ISH (identical priorities, only hole-filling
//                      differs) and ETF vs MCP as a cross-check.
//  ablate_priority  -- static vs dynamic priorities and CP-based vs
//                      non-CP-based groups, NSL and scheduling time.
//  ablate_topology  -- "all algorithms perform better on networks with
//                      more communication links": APN NSL on ring8 <
//                      mesh2x4 < hcube3 < clique8.
//
// Seed pairing: ablate_ccr and ablate_topology key each graph's stream by
// the replication index ONLY (derive_seed(master, i)), so every CCR row /
// machine sees the same underlying graph suite -- the property the paired
// comparison rests on. The other ablations use the per-job stream.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "experiments/experiments.h"
#include "tgs/gen/rgbos.h"
#include "tgs/gen/rgnos.h"
#include "tgs/harness/registry.h"
#include "tgs/harness/runner.h"
#include "tgs/net/routing.h"
#include "tgs/optimal/bb_scheduler.h"
#include "tgs/util/rng.h"

namespace tgs::bench {
namespace {

// ----------------------------------------------------------- ablate_bb ----

void run_ablate_bb(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const NodeId max_nodes = static_cast<NodeId>(cli.get_int("max-nodes", 14));
  const std::uint64_t full_budget =
      static_cast<std::uint64_t>(cli.get_int("bb-nodes", 250'000));
  const std::uint64_t naive_budget =
      static_cast<std::uint64_t>(cli.get_int("naive-nodes", 4'000'000));
  const int bb_threads =
      static_cast<int>(cli.get_int("bb-threads", ctx.threads));

  Sweep sweep;
  std::vector<double> sizes;
  for (NodeId v = 10; v <= max_nodes; v += 2) sizes.push_back(v);
  sweep.axis("v", sizes).axis("ccr", {0.1, 10.0});

  OutStream out = make_out(ctx, "ablate_bb");
  ResultSink sink("ablate_bb", out.get());

  const std::vector<std::string> columns{"optimal",      "states(full)",
                                         "time(full)",   "states(naive)",
                                         "time(naive)",  "speedup",
                                         "proven(both)"};

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    const double ccr = pt.param("ccr");
    const TaskGraph g = rgbos_graph(ccr, v, jc.master_seed);
    const std::string pivot = "ccr" + Table::fmt(ccr, 1);
    SchedWorkspace& ws = bind_workspace(g);

    SchedOptions heur_opt;
    heur_opt.num_procs = 2;
    Time best_heur = kTimeInf;
    for (const auto& a : make_bnp_schedulers())
      best_heur = std::min(best_heur, a->run(g, heur_opt, ws).makespan());

    BBOptions full;
    full.num_procs = 2;
    full.num_threads = bb_threads;  // round-synchronous: counts stay exact
    full.time_limit_seconds = 0.0;
    full.max_nodes = full_budget;
    full.initial_upper_bound = best_heur;
    const BBResult with = branch_and_bound(g, full);

    BBOptions naive = full;
    naive.disable_bounds = true;
    naive.initial_upper_bound = 0;
    naive.max_nodes = naive_budget;
    const BBResult without = branch_and_bound(g, naive);

    if (with.proven_optimal && without.proven_optimal &&
        with.length != without.length)
      throw std::runtime_error("pruned and exhaustive optima disagree at v=" +
                               std::to_string(v));
    // When the budget runs dry before any complete schedule, the search
    // reports the seeded upper bound as its length (never 0), so the
    // "optimal" column is always the best value actually proven reachable.
    const Time shown = with.length;

    std::vector<Record> records;
    const auto cell = [&](const std::string& column, double value) {
      Record rec;
      rec.pivot = pivot;
      rec.row = v;
      rec.column = column;
      rec.value = value;
      records.push_back(std::move(rec));
    };
    cell("optimal", static_cast<double>(shown));
    cell("states(full)", static_cast<double>(with.nodes_expanded));
    cell("time(full)", ctx.time_value(with.seconds));
    cell("states(naive)", static_cast<double>(without.nodes_expanded));
    cell("time(naive)", ctx.time_value(without.seconds));
    cell("speedup",
         static_cast<double>(without.nodes_expanded) /
             static_cast<double>(std::max<std::uint64_t>(
                 1, with.nodes_expanded)));
    cell("proven(both)",
         with.proven_optimal && without.proven_optimal ? 1.0 : 0.0);
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf("Branch-and-bound pruning ablation: seed=%llu, p=2, budgets "
                "%llu/%llu states\n\n",
                static_cast<unsigned long long>(ctx.seed),
                static_cast<unsigned long long>(full_budget),
                static_cast<unsigned long long>(naive_budget));
  for (const double ccr : {0.1, 10.0}) {
    const std::string pivot = "ccr" + Table::fmt(ccr, 1);
    PivotStats stats("v", columns);
    sink.fold(pivot, stats);
    emit(ctx, "ablate_bb_" + pivot,
         "Ablation: B&B states, pruning on vs exhaustive, CCR=" +
             Table::fmt(ccr, 1),
         stats.render(1));
  }
  report_sink(ctx, sink, out);
}

// ---------------------------------------------------------- ablate_ccr ----

void run_ablate_ccr(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const int graphs = static_cast<int>(cli.get_int("graphs", 4));
  const NodeId nodes = static_cast<NodeId>(cli.get_int("nodes", 200));
  check_algo_filter(cli, {unc_names(), bnp_names(), apn_names()});
  const std::vector<std::string> unc_n = filtered_names(cli, unc_names());
  const std::vector<std::string> bnp_n = filtered_names(cli, bnp_names());
  const std::vector<std::string> apn_n = filtered_names(cli, apn_names());

  Sweep sweep;
  std::vector<double> indices;
  for (int i = 0; i < graphs; ++i) indices.push_back(i);
  sweep.axis("ccr", {0.1, 0.5, 1.0, 2.0, 10.0}).axis("i", indices);

  OutStream out = make_out(ctx, "ablate_ccr");
  ResultSink sink("ablate_ccr", out.get());
  const RoutingTable routes{Topology::hypercube(3)};

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const double ccr = pt.param("ccr");
    const int i = static_cast<int>(pt.param("i"));
    RgnosParams p;
    p.num_nodes = nodes;
    p.ccr = ccr;
    p.parallelism = 1 + i % 5;
    // Keyed by i only: CCR rows stay paired on the same base structure.
    p.seed = derive_seed(jc.master_seed, static_cast<std::uint64_t>(i));
    const TaskGraph g = rgnos_graph(p);
    SchedWorkspace& ws = bind_workspace(g);

    std::vector<Record> records;
    for (const std::string& name : unc_n) {
      const RunResult rr = run_scheduler(*make_scheduler(name), g, {}, ws);
      records.push_back(record_from_run(rr, "ablate_ccr", ccr, rr.nsl));
    }
    for (const std::string& name : bnp_n) {
      const RunResult rr = run_scheduler(*make_scheduler(name), g, {}, ws);
      records.push_back(record_from_run(rr, "ablate_ccr", ccr, rr.nsl));
    }
    for (const std::string& name : apn_n) {
      RunResult rr =
          run_apn_scheduler(*make_apn_scheduler(name), g, routes, ws);
      rr.algo += "(APN)";
      records.push_back(record_from_run(rr, "ablate_ccr", ccr, rr.nsl));
    }
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf("CCR sensitivity: %d RGNOS graphs (v=%u) per CCR, seed=%llu\n"
                "Expect every column to increase down the table.\n\n",
                graphs, nodes, static_cast<unsigned long long>(ctx.seed));
  std::vector<std::string> columns = unc_n;
  for (const std::string& n : bnp_n) columns.push_back(n);
  for (const std::string& n : apn_n) columns.push_back(n + "(APN)");
  PivotStats stats("CCR", columns);
  sink.fold("ablate_ccr", stats);
  emit(ctx, "ablate_ccr", "Ablation: average NSL vs CCR (all 15 algorithms)",
       stats.render(3));
  report_sink(ctx, sink, out);
}

// ---------------------------------------------------- ablate_insertion ----

void run_ablate_insertion(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const int graphs = static_cast<int>(cli.get_int("graphs", 8));
  const NodeId nodes = static_cast<NodeId>(cli.get_int("nodes", 150));

  Sweep sweep;
  std::vector<double> indices;
  for (int i = 0; i < graphs; ++i) indices.push_back(i);
  sweep.axis("ccr", {0.1, 0.5, 1.0, 2.0, 10.0}).axis("i", indices);

  OutStream out = make_out(ctx, "ablate_insertion");
  ResultSink sink("ablate_insertion", out.get());

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const double ccr = pt.param("ccr");
    const int i = static_cast<int>(pt.param("i"));
    RgnosParams p;
    p.num_nodes = nodes;
    p.ccr = ccr;
    p.parallelism = 1 + i % 5;
    p.seed = jc.seed;
    const TaskGraph g = rgnos_graph(p);
    SchedWorkspace& ws = bind_workspace(g);
    const double lh = static_cast<double>(
        make_scheduler("HLFET")->run(g, {}, ws).makespan());
    const double li =
        static_cast<double>(make_scheduler("ISH")->run(g, {}, ws).makespan());
    const double le =
        static_cast<double>(make_scheduler("ETF")->run(g, {}, ws).makespan());
    const double lm =
        static_cast<double>(make_scheduler("MCP")->run(g, {}, ws).makespan());

    std::vector<Record> records;
    const auto cell = [&](const std::string& column, double value) {
      Record rec;
      rec.pivot = "ablate_insertion";
      rec.row = ccr;
      rec.column = column;
      rec.value = value;
      records.push_back(std::move(rec));
    };
    cell("HLFET/ISH", lh / li);
    cell("ETF/MCP", le / lm);
    // Per-graph 0/100 indicators; the pivot mean is the percentage.
    cell("ISH wins %", li < lh ? 100.0 : 0.0);
    cell("ties %", li == lh ? 100.0 : 0.0);
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf("Insertion ablation: %d RGNOS graphs (v=%u) per CCR, "
                "seed=%llu\nRatios > 1.0 mean the insertion-based algorithm "
                "wins.\n\n",
                graphs, nodes, static_cast<unsigned long long>(ctx.seed));
  PivotStats stats("CCR", {"HLFET/ISH", "ETF/MCP", "ISH wins %", "ties %"});
  sink.fold("ablate_insertion", stats);
  emit(ctx, "ablate_insertion", "Ablation: insertion vs non-insertion",
       stats.render(3));
  report_sink(ctx, sink, out);
}

// ----------------------------------------------------- ablate_priority ----

void run_ablate_priority(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const int graphs = static_cast<int>(cli.get_int("graphs", 6));
  const NodeId nodes = static_cast<NodeId>(cli.get_int("nodes", 150));

  const std::vector<std::string> columns{"static(HLFET,ISH)",
                                         "dynamic(ETF,DLS)", "MCP",
                                         "CP-based(UNC)", "non-CP(UNC)"};

  Sweep sweep;
  std::vector<double> indices;
  for (int i = 0; i < graphs; ++i) indices.push_back(i);
  sweep.axis("ccr", {0.1, 1.0, 10.0}).axis("i", indices);

  OutStream out = make_out(ctx, "ablate_priority");
  ResultSink sink("ablate_priority", out.get());

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const double ccr = pt.param("ccr");
    const int i = static_cast<int>(pt.param("i"));
    RgnosParams p;
    p.num_nodes = nodes;
    p.ccr = ccr;
    p.parallelism = 1 + i % 5;
    p.seed = jc.seed;
    const TaskGraph g = rgnos_graph(p);
    SchedWorkspace& ws = bind_workspace(g);

    std::vector<Record> records;
    const auto group = [&](const std::vector<const char*>& names,
                           const char* column) {
      for (const char* n : names) {
        const RunResult r = run_scheduler(*make_scheduler(n), g, {}, ws);
        Record nsl;
        nsl.pivot = "priority_nsl";
        nsl.row = ccr;
        nsl.column = column;
        nsl.value = r.nsl;
        records.push_back(std::move(nsl));
        Record ms;
        ms.pivot = "priority_time";
        ms.row = ccr;
        ms.column = column;
        ms.value = ctx.time_value(r.seconds * 1e3);
        records.push_back(std::move(ms));
      }
    };
    group({"HLFET", "ISH"}, "static(HLFET,ISH)");
    group({"ETF", "DLS"}, "dynamic(ETF,DLS)");
    group({"MCP"}, "MCP");
    group({"DCP", "DSC", "MD"}, "CP-based(UNC)");
    group({"EZ", "LC"}, "non-CP(UNC)");
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf("Priority ablation: %d RGNOS graphs (v=%u) per CCR, "
                "seed=%llu\n\n",
                graphs, nodes, static_cast<unsigned long long>(ctx.seed));
  PivotStats nsl("CCR", columns);
  sink.fold("priority_nsl", nsl);
  emit(ctx, "ablate_priority_nsl",
       "Ablation: priority scheme, average NSL per group", nsl.render(3));
  PivotStats time_ms("CCR", columns);
  sink.fold("priority_time", time_ms);
  emit(ctx, "ablate_priority_time",
       "Ablation: priority scheme, average scheduling time (ms)",
       time_ms.render(2));
  report_sink(ctx, sink, out);
}

// ----------------------------------------------------- ablate_topology ----

void run_ablate_topology(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const int graphs = static_cast<int>(cli.get_int("graphs", 4));
  const NodeId nodes = static_cast<NodeId>(cli.get_int("nodes", 120));
  check_algo_filter(cli, {apn_names()});
  const std::vector<std::string> apn_n = filtered_names(cli, apn_names());

  const auto make_machine = [](const std::string& label) {
    if (label == "ring8") return RoutingTable{Topology::ring(8)};
    if (label == "mesh2x4") return RoutingTable{Topology::mesh(2, 4)};
    if (label == "hcube3") return RoutingTable{Topology::hypercube(3)};
    return RoutingTable{Topology::fully_connected(8)};
  };
  // Keyed by link count (the pivot rows), labelled by machine name.
  const std::vector<double> links{8, 10, 12, 28};
  const std::vector<std::string> machine_names{"ring8", "mesh2x4", "hcube3",
                                               "clique8"};

  Sweep sweep;
  std::vector<double> indices;
  for (int i = 0; i < graphs; ++i) indices.push_back(i);
  sweep.axis("machine", links, machine_names).axis("i", indices);

  OutStream out = make_out(ctx, "ablate_topology");
  ResultSink sink("ablate_topology", out.get());

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const int i = static_cast<int>(pt.param("i"));
    const RoutingTable routes = make_machine(pt.label("machine"));
    RgnosParams p;
    p.num_nodes = nodes;
    p.ccr = i % 2 == 0 ? 1.0 : 2.0;
    p.parallelism = 2 + i % 3;
    // Keyed by i only: every machine must see the same graph suite.
    p.seed = derive_seed(jc.master_seed, static_cast<std::uint64_t>(i));
    const TaskGraph g = rgnos_graph(p);
    SchedWorkspace& ws = bind_workspace(g);

    std::vector<Record> records;
    for (const std::string& name : apn_n) {
      const RunResult rr =
          run_apn_scheduler(*make_apn_scheduler(name), g, routes, ws);
      if (!rr.valid)
        throw std::runtime_error("invalid " + rr.algo + " schedule on " +
                                 pt.label("machine") + ": " + rr.error);
      Record rec =
          record_from_run(rr, "ablate_topology", pt.param("machine"), rr.nsl);
      rec.str.emplace_back("machine", pt.label("machine"));
      records.push_back(std::move(rec));
    }
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf("Topology ablation: %d RGNOS graphs (v=%u) per machine, "
                "seed=%llu.\nRows are keyed by link count: 8=ring, "
                "10=mesh2x4, 12=hcube3, 28=clique8.\nExpect NSL to fall as "
                "links grow.\n\n",
                graphs, nodes, static_cast<unsigned long long>(ctx.seed));
  PivotStats stats("links", apn_n);
  sink.fold("ablate_topology", stats);
  emit(ctx, "ablate_topology", "Ablation: APN NSL vs network connectivity",
       stats.render(3));
  report_sink(ctx, sink, out);
}

}  // namespace

void register_ablation_experiments(ExperimentRegistry& r) {
  r.add({"ablate_bb", "ablations",
         "B&B pruning machinery: states expanded, full vs exhaustive "
         "[--max-nodes, --bb-nodes, --naive-nodes, --bb-threads]",
         run_ablate_bb});
  r.add({"ablate_ccr", "ablations",
         "NSL of all 15 algorithms vs CCR, paired graph suite "
         "[--graphs, --nodes]",
         run_ablate_ccr});
  r.add({"ablate_insertion", "ablations",
         "insertion vs non-insertion: HLFET/ISH and ETF/MCP ratios "
         "[--graphs, --nodes]",
         run_ablate_insertion});
  r.add({"ablate_priority", "ablations",
         "static vs dynamic priority and CP vs non-CP groups "
         "[--graphs, --nodes]",
         run_ablate_priority});
  r.add({"ablate_topology", "ablations",
         "APN NSL vs network connectivity, paired graph suite "
         "[--graphs, --nodes]",
         run_ablate_topology});
}

}  // namespace tgs::bench
