// Figure 4 (paper §6.5): average NSL on the traced Cholesky factorization
// graphs, vs matrix dimension, for the UNC (a), BNP (b) and APN (c)
// classes. For a matrix dimension N the graph has N(N+1)/2 tasks. We
// additionally sweep the Gaussian-elimination graph as the paper's
// "second application" cross-check.
//
// Paper shape: the BNP algorithms perform similarly except LAST, which is
// much worse; the UNC algorithms are much more diverse; the relative APN
// performance is stable across applications.
//
// The traced graphs are deterministic in (dimension, comm scale) -- no
// RNG streams are consumed. One job per matrix dimension.
#include <algorithm>
#include <cstdio>

#include "experiments/experiments.h"
#include "tgs/gen/traced.h"
#include "tgs/harness/registry.h"
#include "tgs/harness/runner.h"
#include "tgs/net/routing.h"

namespace tgs::bench {
namespace {

void run_fig4(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const int max_dim = static_cast<int>(cli.get_int("max-dim", 32));
  // Default communication scale 5.0 (CCR ~ 2.5): the compiler-traced graphs
  // the paper used were communication-dominant enough for the algorithm
  // classes to separate; at scale 1.0 every algorithm pins NSL to 1.0 and
  // the figure degenerates.
  const double comm = cli.get_double("comm", 5.0);
  check_algo_filter(cli, {unc_names(), bnp_names(), apn_names()});
  const std::vector<std::string> unc_n = filtered_names(cli, unc_names());
  const std::vector<std::string> bnp_n = filtered_names(cli, bnp_names());
  const std::vector<std::string> apn_n = filtered_names(cli, apn_names());
  const auto wants = [](const std::vector<std::string>& names,
                        const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  // The Gaussian cross-check columns honour the --algo filter too.
  std::vector<std::string> gauss_n;
  if (wants(unc_n, "DCP")) gauss_n.push_back("DCP");
  if (wants(bnp_n, "MCP")) gauss_n.push_back("MCP");
  if (wants(apn_n, "BSA")) gauss_n.push_back("BSA");

  Sweep sweep;
  std::vector<double> dims;
  for (int dim = 8; dim <= max_dim; dim += 4) dims.push_back(dim);
  sweep.axis("dim", dims);

  OutStream out = make_out(ctx, "fig4");
  ResultSink sink("fig4", out.get());
  const RoutingTable routes{Topology::hypercube(3)};

  const auto job = [&](const JobContext&, const SweepPoint& pt) {
    const int dim = static_cast<int>(pt.param("dim"));
    std::vector<Record> records;

    // bind_workspace hands out the one thread-local workspace, so each
    // graph's reference lives in its own scope -- two live names would
    // alias, and binding the second would invalidate the first.
    {
      const TaskGraph g = cholesky_graph(dim, comm);
      SchedWorkspace& ws = bind_workspace(g);
      for (const std::string& name : unc_n) {
        const RunResult rr = run_scheduler(*make_scheduler(name), g, {}, ws);
        records.push_back(record_from_run(rr, "fig4a", dim, rr.nsl));
      }
      for (const std::string& name : bnp_n) {
        const RunResult rr = run_scheduler(*make_scheduler(name), g, {}, ws);
        records.push_back(record_from_run(rr, "fig4b", dim, rr.nsl));
      }
      for (const std::string& name : apn_n) {
        const RunResult rr =
            run_apn_scheduler(*make_apn_scheduler(name), g, routes, ws);
        records.push_back(record_from_run(rr, "fig4c", dim, rr.nsl));
      }
    }

    // Second application (paper: "quite similar for both applications").
    if (!gauss_n.empty()) {
      const TaskGraph ge = gaussian_elimination_graph(dim, comm);
      SchedWorkspace& ws = bind_workspace(ge);
      for (const std::string& name : gauss_n) {
        const RunResult rr =
            name == "BSA"
                ? run_apn_scheduler(*make_apn_scheduler(name), ge, routes, ws)
                : run_scheduler(*make_scheduler(name), ge, {}, ws);
        Record rec = record_from_run(rr, "fig4x", dim, rr.nsl);
        rec.str.emplace_back("app", "gauss");
        records.push_back(std::move(rec));
      }
    }
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf("Cholesky traced graphs, comm scale %.1f; APN on hcube3; %d "
                "worker threads\n\n",
                comm, ctx.threads);
  const auto render = [&](const std::string& pivot,
                          const std::vector<std::string>& cols,
                          const std::string& name, const std::string& title) {
    if (cols.empty()) return;
    PivotStats stats("N", cols);
    sink.fold(pivot, stats);
    emit(ctx, name, title, stats.render(3));
  };
  render("fig4a", unc_n, "fig4a_traced_unc",
         "Figure 4(a): average NSL on Cholesky, UNC");
  render("fig4b", bnp_n, "fig4b_traced_bnp",
         "Figure 4(b): average NSL on Cholesky, BNP");
  render("fig4c", apn_n, "fig4c_traced_apn",
         "Figure 4(c): average NSL on Cholesky, APN");
  render("fig4x", gauss_n, "fig4x_traced_gauss",
         "Figure 4 extension: Gaussian elimination cross-check");
  report_sink(ctx, sink, out);
}

}  // namespace

void register_traced_experiments(ExperimentRegistry& r) {
  r.add({"fig4", "traced",
         "average NSL on traced Cholesky/Gauss graphs, UNC/BNP/APN "
         "[--max-dim, --comm]",
         run_fig4});
}

}  // namespace tgs::bench
