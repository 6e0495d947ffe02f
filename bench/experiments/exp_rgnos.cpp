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
#include "tgs/map/cluster_map.h"
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
  const Slate slate(cli, {AlgoClass::kUNC, AlgoClass::kBNP, AlgoClass::kAPN});

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    const RgnosJobGraph g = rgnos_graph_at(jc, pt, reps);
    SchedWorkspace& ws = bind_workspace(g.graph);
    std::vector<Record> records;
    for (const SlateEntry& e : slate.entries()) {
      if (e.cls == AlgoClass::kAPN && v > apn_max) continue;
      const RunResult rr = slate.run(e, g.graph, ws);
      records.push_back(record_from_run(rr, panel("fig2", e.cls), v, rr.nsl));
      records.back().num.emplace_back("ccr", g.ccr);
      records.back().num.emplace_back("parallelism", g.parallelism);
    }
    return records;
  };
  run_experiment(
      ctx, "fig2", rgnos_size_sweep(max_nodes, reps.size()), job,
      [&](const Report& r) {
        if (!ctx.quiet)
          std::printf("RGNOS NSL sweep: seed=%llu, %zu graphs per size, %d "
                      "worker threads; APN on hcube3 (8 procs)\n\n",
                      static_cast<unsigned long long>(ctx.seed), reps.size(),
                      ctx.threads);
        r.pivot("fig2a", "v", slate.columns(AlgoClass::kUNC), 3,
                "tgs_bench_fig2a", "Figure 2(a): average NSL, UNC algorithms");
        r.pivot("fig2b", "v", slate.columns(AlgoClass::kBNP), 3,
                "tgs_bench_fig2b", "Figure 2(b): average NSL, BNP algorithms");
        r.pivot("fig2c", "v", slate.columns(AlgoClass::kAPN), 3,
                "tgs_bench_fig2c", "Figure 2(c): average NSL, APN algorithms");
      });
}

// ---------------------------------------------------------------- fig3 ----

void run_fig3(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const NodeId max_nodes = static_cast<NodeId>(cli.get_int("max-nodes", 500));
  const auto reps = rgnos_reps(cli.has("full"));
  const Slate slate(cli, {AlgoClass::kUNC, AlgoClass::kBNP});

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    const RgnosJobGraph g = rgnos_graph_at(jc, pt, reps);
    SchedWorkspace& ws = bind_workspace(g.graph);
    std::vector<Record> records;
    for (const SlateEntry& e : slate.entries()) {
      const RunResult rr = slate.run(e, g.graph, ws);
      records.push_back(record_from_run(rr, panel("fig3", e.cls), v,
                                        static_cast<double>(rr.procs_used)));
    }
    return records;
  };
  run_experiment(
      ctx, "fig3", rgnos_size_sweep(max_nodes, reps.size()), job,
      [&](const Report& r) {
        if (!ctx.quiet)
          std::printf("RGNOS processors-used sweep: seed=%llu, %zu graphs "
                      "per size, %d worker threads\n\n",
                      static_cast<unsigned long long>(ctx.seed), reps.size(),
                      ctx.threads);
        r.pivot("fig3a", "v", slate.columns(AlgoClass::kUNC), 1,
                "fig3a_procs", "Figure 3(a): average processors used, UNC");
        r.pivot("fig3b", "v", slate.columns(AlgoClass::kBNP), 1,
                "fig3b_procs", "Figure 3(b): average processors used, BNP");
      });
}

// ---------------------------------------------------------- ext_unc_cs ----

void run_ext_unc_cs(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const int procs = static_cast<int>(cli.get_int("procs", 8));
  const int graphs = static_cast<int>(cli.get_int("graphs", 4));
  const NodeId max_v = static_cast<NodeId>(cli.get_int("max-v", 300));
  const Slate direct({"MCP", "ETF"});

  Sweep sweep;
  sweep.axis("v", range(50, max_v, 50)).axis("i", range(0, graphs - 1));

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    const int i = static_cast<int>(pt.param("i"));
    const TaskGraph g =
        rgnos_sample(v, i % 2 == 0 ? 1.0 : 2.0, 2 + i % 3, jc.seed);
    SchedWorkspace& ws = bind_workspace(g);

    std::vector<Record> records;
    const auto add = [&](const std::string& column, Time makespan) {
      records.push_back(cell("ext_unc_cs", v, column,
                             normalized_schedule_length(g, makespan),
                             {{"length", static_cast<double>(makespan)}}));
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
      add(std::string(unc_name) + "+Sarkar", sarkar.makespan());
      add(std::string(unc_name) + "+RCP", rcp.makespan());
    }
    SchedOptions bounded;
    bounded.num_procs = procs;
    for (const SlateEntry& e : direct.entries())
      add(e.column, direct.run(e, g, ws, bounded).length);
    return records;
  };
  run_experiment(ctx, "ext_unc_cs", sweep, job, [&](const Report& r) {
    if (!ctx.quiet)
      std::printf("UNC+CS extension: p=%d, %d graphs per size, seed=%llu\n\n",
                  procs, graphs, static_cast<unsigned long long>(ctx.seed));
    r.pivot("ext_unc_cs", "v",
            {"DSC+Sarkar", "DSC+RCP", "DCP+Sarkar", "DCP+RCP", "MCP", "ETF"},
            3, "ext_unc_cs",
            "Extension: UNC + cluster scheduling vs direct BNP (avg NSL)");
  });
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
