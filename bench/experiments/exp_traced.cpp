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
#include <cstdio>

#include "experiments/experiments.h"
#include "tgs/gen/traced.h"

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
  const Slate slate(cli, {AlgoClass::kUNC, AlgoClass::kBNP, AlgoClass::kAPN});
  // The Gaussian cross-check runs one algorithm per class, and honours the
  // --algo filter too.
  const auto gauss = [](const SlateEntry& e) {
    return e.column == "DCP" || e.column == "MCP" || e.column == "BSA";
  };
  std::vector<std::string> gauss_columns;
  for (const SlateEntry& e : slate.entries())
    if (gauss(e)) gauss_columns.push_back(e.column);

  Sweep sweep;
  sweep.axis("dim", range(8, max_dim, 4));

  const auto job = [&](const JobContext&, const SweepPoint& pt) {
    const int dim = static_cast<int>(pt.param("dim"));
    std::vector<Record> records;

    // bind_workspace hands out the one thread-local workspace, so each
    // graph's reference lives in its own scope -- two live names would
    // alias, and binding the second would invalidate the first.
    {
      const TaskGraph g = cholesky_graph(dim, comm);
      SchedWorkspace& ws = bind_workspace(g);
      for (const SlateEntry& e : slate.entries()) {
        const RunResult rr = slate.run(e, g, ws);
        records.push_back(
            record_from_run(rr, panel("fig4", e.cls), dim, rr.nsl));
      }
    }

    // Second application (paper: "quite similar for both applications").
    if (!gauss_columns.empty()) {
      const TaskGraph ge = gaussian_elimination_graph(dim, comm);
      SchedWorkspace& ws = bind_workspace(ge);
      for (const SlateEntry& e : slate.entries()) {
        if (!gauss(e)) continue;
        const RunResult rr = slate.run(e, ge, ws);
        records.push_back(record_from_run(rr, "fig4x", dim, rr.nsl));
        records.back().str.emplace_back("app", "gauss");
      }
    }
    return records;
  };
  run_experiment(ctx, "fig4", sweep, job, [&](const Report& r) {
    if (!ctx.quiet)
      std::printf("Cholesky traced graphs, comm scale %.1f; APN on hcube3; "
                  "%d worker threads\n\n",
                  comm, ctx.threads);
    r.pivot("fig4a", "N", slate.columns(AlgoClass::kUNC), 3,
            "fig4a_traced_unc", "Figure 4(a): average NSL on Cholesky, UNC");
    r.pivot("fig4b", "N", slate.columns(AlgoClass::kBNP), 3,
            "fig4b_traced_bnp", "Figure 4(b): average NSL on Cholesky, BNP");
    r.pivot("fig4c", "N", slate.columns(AlgoClass::kAPN), 3,
            "fig4c_traced_apn", "Figure 4(c): average NSL on Cholesky, APN");
    r.pivot("fig4x", "N", gauss_columns, 3, "fig4x_traced_gauss",
            "Figure 4 extension: Gaussian elimination cross-check");
  });
}

}  // namespace

void register_traced_experiments(ExperimentRegistry& r) {
  r.add({"fig4", "traced",
         "average NSL on traced Cholesky/Gauss graphs, UNC/BNP/APN "
         "[--max-dim, --comm]",
         run_fig4});
}

}  // namespace tgs::bench
