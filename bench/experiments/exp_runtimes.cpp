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
#include "tgs/gen/rgnos.h"
#include "tgs/harness/registry.h"
#include "tgs/harness/runner.h"
#include "tgs/net/routing.h"
#include "tgs/util/rng.h"
#include "tgs/util/stats.h"

namespace tgs::bench {
namespace {

// -------------------------------------------------------------- table6 ----

void run_table6(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const NodeId max_nodes = static_cast<NodeId>(cli.get_int("max-nodes", 500));
  const int time_reps = std::max(1, static_cast<int>(cli.get_int("reps", 1)));
  const auto reps = rgnos_reps(cli.has("full"));
  check_algo_filter(cli, {unc_names(), bnp_names(), apn_names()});
  const std::vector<std::string> unc_n = filtered_names(cli, unc_names());
  const std::vector<std::string> bnp_n = filtered_names(cli, bnp_names());
  const std::vector<std::string> apn_n = filtered_names(cli, apn_names());

  const Sweep sweep = rgnos_size_sweep(max_nodes, reps.size());

  OutStream out = make_out(ctx, "table6");
  ResultSink sink("table6", out.get());
  const RoutingTable routes{Topology::hypercube(3)};

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    const RgnosJobGraph g = rgnos_graph_at(jc, pt, reps);
    SchedWorkspace& ws = bind_workspace(g.graph);
    // Pre-warm the lazily computed shared attributes so no algorithm's
    // timed run is charged for filling the cache the others then reuse --
    // the table compares scheduling bodies, uniformly.
    ws.attrs().static_levels();
    ws.attrs().alap_times();  // also fills b-levels + critical path

    // Run once (the record everything else derives from), then --reps - 1
    // more times keeping the fastest observation.
    const auto timed = [&](const auto& once) {
      RunResult best = require_valid(once());
      for (int i = 1; i < time_reps; ++i)
        best.seconds = std::min(best.seconds, require_valid(once()).seconds);
      return best;
    };

    std::vector<Record> records;
    for (const std::string& name : unc_n) {
      const RunResult rr = timed([&] {
        return run_scheduler(*make_scheduler(name), g.graph, {}, ws);
      });
      records.push_back(
          record_from_run(rr, "table6", v, ctx.time_value(rr.seconds)));
    }
    for (const std::string& name : bnp_n) {
      const RunResult rr = timed([&] {
        return run_scheduler(*make_scheduler(name), g.graph, {}, ws);
      });
      records.push_back(
          record_from_run(rr, "table6", v, ctx.time_value(rr.seconds)));
    }
    for (const std::string& name : apn_n) {
      RunResult rr = timed([&] {
        return run_apn_scheduler(*make_apn_scheduler(name), g.graph, routes,
                                 ws);
      });
      rr.algo += "(APN)";
      records.push_back(
          record_from_run(rr, "table6", v, ctx.time_value(rr.seconds)));
    }
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf("RGNOS running times: seed=%llu, %zu graphs per size, min of "
                "%d timing rep(s), APN on hcube3, %d worker threads\n\n",
                static_cast<unsigned long long>(ctx.seed), reps.size(),
                time_reps, ctx.threads);
  std::vector<std::string> columns = unc_n;
  for (const std::string& n : bnp_n) columns.push_back(n);
  for (const std::string& n : apn_n) columns.push_back(n + "(APN)");
  PivotStats stats("v", columns);
  sink.fold("table6", stats);
  emit(ctx, "table6_runtimes",
       "Table 6: average scheduling times (seconds) on RGNOS",
       stats.render(4));
  report_sink(ctx, sink, out);
}

// --------------------------------------------------------------- micro ----

void run_micro(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const int reps = std::max(1, static_cast<int>(cli.get_int("reps", 5)));
  const NodeId max_nodes = static_cast<NodeId>(cli.get_int("max-nodes", 300));
  check_algo_filter(cli, {unc_names(), bnp_names(), apn_names()});

  struct Algo {
    enum Kind { kSched, kApn } kind;
    std::string name;   // registry name
    std::string label;  // pivot column (APN DLS disambiguated)
  };
  std::vector<Algo> algos;
  for (const std::string& n : filtered_names(cli, bnp_names()))
    algos.push_back({Algo::kSched, n, n});
  for (const std::string& n : filtered_names(cli, unc_names()))
    algos.push_back({Algo::kSched, n, n});
  for (const std::string& n : filtered_names(cli, apn_names()))
    algos.push_back({Algo::kApn, n, n == "DLS" ? "DLS-APN" : n});

  Sweep sweep;
  std::vector<double> indices;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < algos.size(); ++i) {
    indices.push_back(i);
    labels.push_back(algos[i].label);
  }
  // Fixed probe sizes 100, 300, 500, ... up to --max-nodes (default keeps
  // the historical {100, 300} pair).
  std::vector<double> sizes{100};
  for (NodeId v = 300; v <= max_nodes; v += 200) sizes.push_back(v);
  sweep.axis("v", sizes).axis("algo", indices, labels);

  OutStream out = make_out(ctx, "micro_algorithms");
  ResultSink sink("micro_algorithms", out.get());
  const RoutingTable routes{Topology::hypercube(3)};

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    const Algo& algo = algos[static_cast<std::size_t>(pt.param("algo"))];
    std::vector<Record> records;
    // APN message scheduling is quadratic-plus; measure at v=100 only.
    if (algo.kind == Algo::kApn && v != 100) return records;

    RgnosParams params;
    params.num_nodes = v;
    params.ccr = 1.0;
    params.parallelism = 3;
    params.seed = derive_seed(jc.master_seed, v);  // same graph for all algos
    const TaskGraph g = rgnos_graph(params);
    SchedWorkspace& ws = bind_workspace(g);

    RunResult rr;
    std::vector<double> samples_ms;
    samples_ms.reserve(static_cast<std::size_t>(reps));
    for (int i = -1; i < reps; ++i) {  // i == -1 is the warm-up
      const RunResult sample =
          algo.kind == Algo::kApn
              ? run_apn_scheduler(*make_apn_scheduler(algo.name), g, routes,
                                  ws)
              : run_scheduler(*make_scheduler(algo.name), g, {}, ws);
      if (i < 0) {
        rr = sample;
        continue;
      }
      samples_ms.push_back(sample.seconds * 1e3);
    }
    const double best_ms =
        *std::min_element(samples_ms.begin(), samples_ms.end());
    double sum_ms = 0.0;
    for (double ms : samples_ms) sum_ms += ms;
    rr.algo = pt.label("algo");
    Record rec = record_from_run(rr, "micro", v, ctx.time_value(best_ms));
    // The minimum is the noise floor; the median shows whether the floor
    // is representative (docs/perf.md, "Measuring").
    rec.num.emplace_back("median_ms", ctx.time_value(median(samples_ms)));
    rec.num.emplace_back("mean_ms", ctx.time_value(sum_ms / reps));
    rec.num.emplace_back("reps", reps);
    records.push_back(std::move(rec));
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf("Scheduling-time micro benchmark: seed=%llu, best of %d runs "
                "per cell (ms; median/mean in JSONL), %d worker threads\n\n",
                static_cast<unsigned long long>(ctx.seed), reps, ctx.threads);
  std::vector<std::string> columns;
  for (const Algo& a : algos) columns.push_back(a.label);
  PivotStats stats("v", columns);
  sink.fold("micro", stats);
  emit(ctx, "tgs_bench_micro", "Scheduling time per call (ms, min of reps)",
       stats.render(3));
  report_sink(ctx, sink, out);
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
