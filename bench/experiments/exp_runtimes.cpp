// Running-time experiments. Wall-clock measurements go through
// ExpContext::time_value(), so --no-timing zeroes them and the JSONL
// stream becomes fully deterministic (the determinism tests run these
// experiments that way); length/procs/nsl fields are reproducible either
// way.
//
//  table6 -- average scheduling times of all 15 algorithms on the RGNOS
//            benchmarks per graph size (paper §6.4.3). Paper shape
//            (relative ranking; absolute numbers are machine-bound):
//            BNP: MCP fastest; DLS and ETF were the slow BNP algorithms
//            until the pair selectors (docs/perf.md, "BNP pair
//            selection"). UNC: LC fastest, then DSC, EZ; DCP and MD
//            slowest. APN: BU fastest; DLS slowest. --reps > 1 times each
//            algorithm that many times per graph and keeps the minimum,
//            making the cells robust to scheduler noise.
//  micro  -- per-call scheduling time of every algorithm on fixed RGNOS
//            graphs: a warm-up run, then --reps timed runs, cell = the
//            minimum (median and mean are recorded alongside in the
//            JSONL stream).
#include <algorithm>
#include <cstdio>

#include "experiments/experiments.h"
#include "tgs/util/rng.h"

namespace tgs::bench {
namespace {

// -------------------------------------------------------------- table6 ----

void run_table6(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const NodeId max_nodes = static_cast<NodeId>(cli.get_int("max-nodes", 500));
  const int time_reps = std::max(1, static_cast<int>(cli.get_int("reps", 1)));
  const auto reps = rgnos_reps(cli.has("full"));
  const Slate slate(cli, {AlgoClass::kUNC, AlgoClass::kBNP, AlgoClass::kAPN},
                    [](const std::string& n) { return n + "(APN)"; });

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    const RgnosJobGraph g = rgnos_graph_at(jc, pt, reps);
    SchedWorkspace& ws = bind_workspace(g.graph);
    // Pre-warm the lazily computed shared attributes so no algorithm's
    // timed run is charged for filling the cache the others then reuse --
    // the table compares scheduling bodies, uniformly.
    ws.attrs().static_levels();
    ws.attrs().alap_times();  // also fills b-levels + critical path

    std::vector<Record> records;
    for (const SlateEntry& e : slate.entries()) {
      // Run once (the record everything else derives from), then --reps - 1
      // more times keeping the fastest observation.
      RunResult rr = slate.run(e, g.graph, ws);
      for (int i = 1; i < time_reps; ++i)
        rr.seconds = std::min(rr.seconds, slate.run(e, g.graph, ws).seconds);
      records.push_back(
          record_from_run(rr, "table6", v, ctx.time_value(rr.seconds)));
    }
    return records;
  };
  run_experiment(
      ctx, "table6", rgnos_size_sweep(max_nodes, reps.size()), job,
      [&](const Report& r) {
        if (!ctx.quiet)
          std::printf("RGNOS running times: seed=%llu, %zu graphs per size, "
                      "min of %d timing rep(s), APN on hcube3, %d worker "
                      "threads\n\n",
                      static_cast<unsigned long long>(ctx.seed), reps.size(),
                      time_reps, ctx.threads);
        r.pivot("table6", "v", slate.columns(), 4, "table6_runtimes",
                "Table 6: average scheduling times (seconds) on RGNOS");
      });
}

// --------------------------------------------------------------- micro ----

void run_micro(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const int reps = std::max(1, static_cast<int>(cli.get_int("reps", 5)));
  const NodeId max_nodes = static_cast<NodeId>(cli.get_int("max-nodes", 300));
  // APN DLS is disambiguated from BNP DLS in the column labels.
  const Slate slate(cli, {AlgoClass::kBNP, AlgoClass::kUNC, AlgoClass::kAPN},
                    [](const std::string& n) {
                      return n == "DLS" ? std::string("DLS-APN") : n;
                    });

  // Fixed probe sizes 100, 300, 500, ... up to --max-nodes (default keeps
  // the historical {100, 300} pair).
  std::vector<double> sizes = range(300, max_nodes, 200);
  sizes.insert(sizes.begin(), 100);
  Sweep sweep;
  sweep.axis("v", sizes).axis(
      "algo", range(0, static_cast<double>(slate.entries().size()) - 1),
      slate.columns());

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    const SlateEntry& e =
        slate.entries()[static_cast<std::size_t>(pt.param("algo"))];
    std::vector<Record> records;
    // APN message scheduling is quadratic-plus; measure at v=100 only.
    if (e.cls == AlgoClass::kAPN && v != 100) return records;

    // The same graph for every algorithm at a size.
    const TaskGraph g = rgnos_sample(v, 1.0, 3, derive_seed(jc.master_seed, v));
    SchedWorkspace& ws = bind_workspace(g);

    const RunResult rr = slate.run(e, g, ws);  // the warm-up
    std::vector<double> samples_ms;
    for (int i = 0; i < reps; ++i)
      samples_ms.push_back(slate.run(e, g, ws).seconds * 1e3);
    const double best_ms =
        *std::min_element(samples_ms.begin(), samples_ms.end());
    double sum_ms = 0.0;
    for (double ms : samples_ms) sum_ms += ms;
    Record rec = record_from_run(rr, "micro", v, ctx.time_value(best_ms));
    // The minimum is the noise floor; the median shows whether the floor
    // is representative (docs/perf.md, "Measuring").
    rec.num.emplace_back("median_ms", ctx.time_value(median(samples_ms)));
    rec.num.emplace_back("mean_ms", ctx.time_value(sum_ms / reps));
    rec.num.emplace_back("reps", reps);
    records.push_back(std::move(rec));
    return records;
  };
  run_experiment(ctx, "micro_algorithms", sweep, job, [&](const Report& r) {
    if (!ctx.quiet)
      std::printf("Scheduling-time micro benchmark: seed=%llu, best of %d "
                  "runs per cell (ms; median/mean in JSONL), %d worker "
                  "threads\n\n",
                  static_cast<unsigned long long>(ctx.seed), reps,
                  ctx.threads);
    r.pivot("micro", "v", slate.columns(), 3, "tgs_bench_micro",
            "Scheduling time per call (ms, min of reps)");
  });
}

}  // namespace

void register_runtime_experiments(ExperimentRegistry& r) {
  r.add({"table6", "runtimes",
         "average scheduling times of all 15 algorithms on RGNOS "
         "[--max-nodes, --full, --reps]",
         run_table6});
  r.add({"micro", "runtimes",
         "per-call scheduling time of every algorithm "
         "[--reps, --max-nodes]",
         run_micro});
}

}  // namespace tgs::bench
