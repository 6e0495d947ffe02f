// RGNOS experiments (random graphs with no known optima, paper §5.4):
//
//  fig2       -- average NSL of the UNC/BNP/APN algorithms vs graph size
//                (paper Figure 2).
//  fig3       -- average number of processors used by the UNC (a) and BNP
//                (b) algorithms vs graph size (paper Figure 3); the BNP
//                algorithms run with a "virtually unlimited" supply,
//                exactly as in the paper.
//  ext_unc_cs -- extension (paper §7 future work): UNC clustering
//                followed by cluster scheduling (Sarkar / RCP) onto a
//                bounded machine, against direct BNP at the same p.
//
// One job per generated graph; each graph is drawn from its own derived
// RNG stream (seed = derive_seed(master, job index)), so grid cells and
// replications never share a seed and the sweeps are bit-identical at any
// thread count.
#include <cstdio>

#include "experiments/experiments.h"
#include "tgs/gen/rgnos.h"
#include "tgs/harness/registry.h"
#include "tgs/harness/runner.h"
#include "tgs/map/cluster_map.h"
#include "tgs/net/routing.h"
#include "tgs/sched/metrics.h"
#include "tgs/sched/validate.h"

namespace tgs::bench {
namespace {

// ---------------------------------------------------------------- fig2 ----

void run_fig2(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const NodeId max_nodes = static_cast<NodeId>(cli.get_int("max-nodes", 500));
  const NodeId apn_max = static_cast<NodeId>(
      cli.get_int("apn-max-nodes", static_cast<std::int64_t>(max_nodes)));
  const auto reps = rgnos_reps(cli.has("full"));
  check_algo_filter(cli, {unc_names(), bnp_names(), apn_names()});
  const std::vector<std::string> unc_n = filtered_names(cli, unc_names());
  const std::vector<std::string> bnp_n = filtered_names(cli, bnp_names());
  const std::vector<std::string> apn_n = filtered_names(cli, apn_names());

  const Sweep sweep = rgnos_size_sweep(max_nodes, reps.size());

  OutStream out = make_out(ctx, "fig2");
  ResultSink sink("fig2", out.get());
  const RoutingTable routes{Topology::hypercube(3)};

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    const RgnosJobGraph g = rgnos_graph_at(jc, pt, reps);
    SchedWorkspace& ws = bind_workspace(g.graph);

    std::vector<Record> records;
    const auto tag = [&](Record rec) {
      rec.num.emplace_back("ccr", g.ccr);
      rec.num.emplace_back("parallelism", g.parallelism);
      records.push_back(std::move(rec));
    };
    for (const std::string& name : unc_n)
      tag(record_from_run(
          require_valid(run_scheduler(*make_scheduler(name), g.graph, {}, ws)),
          "fig2a", v, 0.0));
    for (const std::string& name : bnp_n)
      tag(record_from_run(
          require_valid(run_scheduler(*make_scheduler(name), g.graph, {}, ws)),
          "fig2b", v, 0.0));
    if (v <= apn_max)
      for (const std::string& name : apn_n)
        tag(record_from_run(
            require_valid(run_apn_scheduler(*make_apn_scheduler(name),
                                            g.graph, routes, ws)),
            "fig2c", v, 0.0));
    for (Record& rec : records) rec.value = num_field(rec, "nsl", 0.0);
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf("RGNOS NSL sweep: seed=%llu, %zu graphs per size, %d worker "
                "threads; APN on hcube3 (8 procs)\n\n",
                static_cast<unsigned long long>(ctx.seed), reps.size(),
                ctx.threads);
  const auto render = [&](const std::string& pivot,
                          const std::vector<std::string>& cols,
                          const std::string& title) {
    if (cols.empty()) return;
    PivotStats stats("v", cols);
    sink.fold(pivot, stats);
    emit(ctx, "tgs_bench_" + pivot, title, stats.render(3));
  };
  render("fig2a", unc_n, "Figure 2(a): average NSL, UNC algorithms");
  render("fig2b", bnp_n, "Figure 2(b): average NSL, BNP algorithms");
  render("fig2c", apn_n, "Figure 2(c): average NSL, APN algorithms");
  report_sink(ctx, sink, out);
}

// ---------------------------------------------------------------- fig3 ----

void run_fig3(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const NodeId max_nodes = static_cast<NodeId>(cli.get_int("max-nodes", 500));
  const auto reps = rgnos_reps(cli.has("full"));
  check_algo_filter(cli, {unc_names(), bnp_names()});
  const std::vector<std::string> unc_n = filtered_names(cli, unc_names());
  const std::vector<std::string> bnp_n = filtered_names(cli, bnp_names());

  const Sweep sweep = rgnos_size_sweep(max_nodes, reps.size());

  OutStream out = make_out(ctx, "fig3");
  ResultSink sink("fig3", out.get());

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    const RgnosJobGraph g = rgnos_graph_at(jc, pt, reps);
    SchedWorkspace& ws = bind_workspace(g.graph);

    std::vector<Record> records;
    for (const std::string& name : unc_n) {
      const RunResult rr =
          require_valid(run_scheduler(*make_scheduler(name), g.graph, {}, ws));
      records.push_back(record_from_run(
          rr, "fig3a", v, static_cast<double>(rr.procs_used)));
    }
    for (const std::string& name : bnp_n) {
      const RunResult rr =
          require_valid(run_scheduler(*make_scheduler(name), g.graph, {}, ws));
      records.push_back(record_from_run(
          rr, "fig3b", v, static_cast<double>(rr.procs_used)));
    }
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf("RGNOS processors-used sweep: seed=%llu, %zu graphs per "
                "size, %d worker threads\n\n",
                static_cast<unsigned long long>(ctx.seed), reps.size(),
                ctx.threads);
  const auto render = [&](const std::string& pivot,
                          const std::vector<std::string>& cols,
                          const std::string& title) {
    if (cols.empty()) return;
    PivotStats stats("v", cols);
    sink.fold(pivot, stats);
    emit(ctx, pivot + "_procs", title, stats.render(1));
  };
  render("fig3a", unc_n, "Figure 3(a): average processors used, UNC");
  render("fig3b", bnp_n, "Figure 3(b): average processors used, BNP");
  report_sink(ctx, sink, out);
}

// ---------------------------------------------------------- ext_unc_cs ----

void run_ext_unc_cs(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const int procs = static_cast<int>(cli.get_int("procs", 8));
  const int graphs = static_cast<int>(cli.get_int("graphs", 4));
  const NodeId max_v = static_cast<NodeId>(cli.get_int("max-v", 300));

  Sweep sweep;
  std::vector<double> sizes;
  for (NodeId v = 50; v <= max_v; v += 50) sizes.push_back(v);
  std::vector<double> indices;
  for (int i = 0; i < graphs; ++i) indices.push_back(i);
  sweep.axis("v", sizes).axis("i", indices);

  OutStream out = make_out(ctx, "ext_unc_cs");
  ResultSink sink("ext_unc_cs", out.get());

  const std::vector<std::string> columns{"DSC+Sarkar", "DSC+RCP",
                                         "DCP+Sarkar", "DCP+RCP",
                                         "MCP",        "ETF"};

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    const int i = static_cast<int>(pt.param("i"));
    RgnosParams p;
    p.num_nodes = v;
    p.ccr = i % 2 == 0 ? 1.0 : 2.0;
    p.parallelism = 2 + i % 3;
    p.seed = jc.seed;
    const TaskGraph g = rgnos_graph(p);
    SchedWorkspace& ws = bind_workspace(g);

    std::vector<Record> records;
    const auto cell = [&](const std::string& column, Time makespan) {
      Record rec;
      rec.pivot = "ext_unc_cs";
      rec.row = v;
      rec.column = column;
      rec.value = normalized_schedule_length(g, makespan);
      rec.num.emplace_back("length", static_cast<double>(makespan));
      records.push_back(std::move(rec));
    };
    for (const char* unc_name : {"DSC", "DCP"}) {
      const Schedule unc = make_scheduler(unc_name)->run(g, {}, ws);
      const auto clusters = clusters_of(unc);
      const Schedule sarkar = map_clusters_sarkar(g, clusters, procs);
      const Schedule rcp = map_clusters_rcp(g, clusters, procs);
      if (!validate_schedule(sarkar, procs).ok ||
          !validate_schedule(rcp, procs).ok)
        throw std::runtime_error(std::string("invalid mapping for ") +
                                 unc_name);
      cell(std::string(unc_name) + "+Sarkar", sarkar.makespan());
      cell(std::string(unc_name) + "+RCP", rcp.makespan());
    }
    SchedOptions bounded;
    bounded.num_procs = procs;
    for (const char* bnp_name : {"MCP", "ETF"})
      cell(bnp_name,
           make_scheduler(bnp_name)->run(g, bounded, ws).makespan());
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf("UNC+CS extension: p=%d, %d graphs per size, seed=%llu\n\n",
                procs, graphs, static_cast<unsigned long long>(ctx.seed));
  PivotStats stats("v", columns);
  sink.fold("ext_unc_cs", stats);
  emit(ctx, "ext_unc_cs",
       "Extension: UNC + cluster scheduling vs direct BNP (avg NSL)",
       stats.render(3));
  report_sink(ctx, sink, out);
}

}  // namespace

void register_rgnos_experiments(ExperimentRegistry& r) {
  r.add({"fig2", "rgnos",
         "average NSL vs graph size on RGNOS, UNC/BNP/APN "
         "[--max-nodes, --apn-max-nodes, --full]",
         run_fig2});
  r.add({"fig3", "rgnos",
         "average processors used vs graph size on RGNOS, UNC/BNP "
         "[--max-nodes, --full]",
         run_fig3});
  r.add({"ext_unc_cs", "rgnos",
         "UNC clustering + cluster scheduling vs direct BNP "
         "[--procs, --graphs, --max-v]",
         run_ext_unc_cs});
}

}  // namespace tgs::bench
