// Tables 2 and 3 (paper §6.2): percentage degradation from
// branch-and-bound reference solutions on the RGBOS suite. One job per
// (CCR, v) graph; the UNC variant (table2) runs unbounded, the BNP
// variant (table3) at --procs processors.
//
// The reference search uses a deterministic node-expansion budget
// (--bb-nodes) and the round-synchronous parallel branch and bound
// (--bb-threads, default: the engine's --threads), whose results are
// byte-identical at any thread count -- so the whole experiment stays
// bit-identical at any --threads x --bb-threads combination.
#include <algorithm>
#include <cstdio>
#include <map>

#include "experiments/experiments.h"
#include "tgs/gen/rgbos.h"
#include "tgs/harness/registry.h"
#include "tgs/harness/runner.h"
#include "tgs/optimal/bb_scheduler.h"
#include "tgs/sched/metrics.h"
#include "tgs/util/stats.h"

namespace tgs::bench {
namespace {

void run_table_rgbos(const ExpContext& ctx, bool unc) {
  const Cli& cli = *ctx.cli;
  const std::string exp = unc ? "table2" : "table3";
  const int procs = static_cast<int>(cli.get_int("procs", 2));
  const std::uint64_t bb_nodes =
      static_cast<std::uint64_t>(cli.get_int("bb-nodes", 250'000));
  // Defaulting to the engine's --threads can oversubscribe (jobs x B&B
  // workers) on wide sweeps; results are byte-identical either way, so
  // pass --bb-threads=1 when the job grid alone saturates the machine.
  const int bb_threads =
      static_cast<int>(cli.get_int("bb-threads", ctx.threads));
  const NodeId max_v = static_cast<NodeId>(
      cli.get_int("max-v", static_cast<std::int64_t>(kRgbosMaxNodes)));
  check_algo_filter(cli, {unc ? unc_names() : bnp_names()});
  const std::vector<std::string> names =
      filtered_names(cli, unc ? unc_names() : bnp_names());

  Sweep sweep;
  sweep.axis("ccr", {kRgbosCcrs[0], kRgbosCcrs[1], kRgbosCcrs[2]});
  std::vector<double> sizes;
  for (NodeId v = kRgbosMinNodes; v <= max_v; v += kRgbosStep)
    sizes.push_back(v);
  sweep.axis("v", sizes);

  OutStream out = make_out(ctx, exp);
  ResultSink sink(exp, out.get());

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const double ccr = pt.param("ccr");
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    // RGBOS is a fixed suite keyed by the master seed (paper §5.2); the
    // per-job stream is not used because the suite has no replications.
    const TaskGraph g = rgbos_graph(ccr, v, jc.master_seed);
    const std::string pivot = "ccr" + Table::fmt(ccr, 1);
    SchedWorkspace& ws = bind_workspace(g);

    SchedOptions opt;
    if (!unc) opt.num_procs = procs;
    std::vector<RunResult> runs;
    int ref_procs = procs;
    Time best_heur = kTimeInf;
    std::string best_name;
    for (const std::string& name : names) {
      runs.push_back(run_scheduler(*make_scheduler(name), g, opt, ws));
      ref_procs = std::max(ref_procs, runs.back().procs_used);
      if (runs.back().length < best_heur) {
        best_heur = runs.back().length;
        best_name = name;
      }
    }

    BBOptions bb;
    bb.num_procs = unc ? ref_procs : procs;
    bb.time_limit_seconds = 0.0;  // wall clock would break reproducibility
    bb.max_nodes = bb_nodes;
    bb.num_threads = bb_threads;  // round-synchronous: any value, same bytes
    bb.initial_upper_bound = best_heur;
    // Seeding the incumbent with the best heuristic's schedule guarantees
    // the reference is never worse than the heuristics, even when the
    // node budget runs dry before the search completes anything.
    bb.initial_schedule = make_scheduler(best_name)->run(g, opt, ws);
    const BBResult bbr = branch_and_bound(g, bb);
    const Time reference = bbr.length;

    std::vector<Record> records;
    for (const RunResult& rr : runs) {
      const double deg = percent_degradation(rr.length, reference);
      records.push_back(record_from_run(rr, pivot, v, deg));
    }
    Record ref;
    ref.pivot = pivot;
    ref.row = v;
    ref.column = "optimal";
    ref.value = static_cast<double>(reference);
    ref.num.emplace_back("proven", bbr.proven_optimal ? 1.0 : 0.0);
    ref.num.emplace_back("bb_nodes", static_cast<double>(bbr.nodes_expanded));
    records.push_back(std::move(ref));
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf("RGBOS / %s: seed=%llu, p=%d, B&B budget=%llu nodes x %d "
                "B&B threads, %d worker threads\n\n",
                unc ? "UNC" : "BNP", static_cast<unsigned long long>(ctx.seed),
                procs, static_cast<unsigned long long>(bb_nodes), bb_threads,
                ctx.threads);
  std::vector<std::string> columns = names;
  columns.push_back("optimal");
  for (const double ccr : kRgbosCcrs) {
    const std::string pivot = "ccr" + Table::fmt(ccr, 1);
    PivotStats stats("v", columns);
    sink.fold(pivot, stats);
    emit(ctx, exp + "_" + pivot,
         (unc ? "Table 2" : "Table 3") +
             std::string(": % degradation from optimal, CCR=") +
             Table::fmt(ccr, 1),
         stats.render(1));
  }

  // Paper-style footer: optimal hits and average degradation per algorithm.
  std::map<std::string, StatAccumulator> degs;
  std::map<std::string, int> hits;
  int proven = 0, instances = 0;
  for (const JobResult& jr : sink.results()) {
    for (const Record& rec : jr.records) {
      if (rec.column == "optimal") {
        ++instances;
        if (num_field(rec, "proven", 0.0) > 0.0) ++proven;
      } else {
        degs[rec.column].add(rec.value);
        if (rec.value == 0.0) ++hits[rec.column];
      }
    }
  }
  Table summary({"algo", "#opt", "avg % degradation"});
  for (const std::string& name : names)
    summary.add_row({name, Table::fmt_int(hits[name]),
                     Table::fmt(degs[name].mean(), 1)});
  emit(ctx, exp + "_summary",
       "References proven optimal: " + Table::fmt_int(proven) + "/" +
           Table::fmt_int(instances),
       summary);
  report_sink(ctx, sink, out);
}

void run_table2(const ExpContext& ctx) { run_table_rgbos(ctx, /*unc=*/true); }
void run_table3(const ExpContext& ctx) { run_table_rgbos(ctx, /*unc=*/false); }

}  // namespace

void register_rgbos_experiments(ExperimentRegistry& r) {
  r.add({"table2", "rgbos",
         "UNC %-degradation from B&B optima on RGBOS "
         "[--procs, --bb-nodes, --bb-threads, --max-v]",
         run_table2});
  r.add({"table3", "rgbos",
         "BNP %-degradation from B&B optima on RGBOS "
         "[--procs, --bb-nodes, --bb-threads, --max-v]",
         run_table3});
}

}  // namespace tgs::bench
