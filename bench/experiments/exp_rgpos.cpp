// Tables 4 and 5 (paper §6.3): percentage degradation from the
// pre-determined optimal schedule lengths on the RGPOS benchmarks
// (v = 50..500 step 50, CCR in {0.1, 1, 10}).
//
// table4 measures the UNC algorithms (unbounded, width_guard plants so
// the planted optimum is a universal lower bound); table5 the BNP
// algorithms bounded to the planted processor count.
//
// Paper shape: at CCR 0.1 DCP finds the planted optimum for more than
// half the cases with <2% average degradation; degradations increase with
// CCR; at CCR 10 hardly any algorithm finds an optimum. The BNP
// algorithms produce similar numbers of optima and degradations.
#include <cmath>
#include <cstdio>
#include <map>

#include "experiments/experiments.h"
#include "tgs/gen/rgpos.h"
#include "tgs/harness/registry.h"
#include "tgs/harness/runner.h"
#include "tgs/sched/metrics.h"
#include "tgs/util/rng.h"
#include "tgs/util/stats.h"

namespace tgs::bench {
namespace {

void run_table_rgpos(const ExpContext& ctx, bool unc) {
  const Cli& cli = *ctx.cli;
  const std::string exp = unc ? "table4" : "table5";
  const int procs = static_cast<int>(cli.get_int("procs", 4));
  const NodeId max_v = static_cast<NodeId>(cli.get_int("max-v", 500));
  check_algo_filter(cli, {unc ? unc_names() : bnp_names()});
  const std::vector<std::string> names =
      filtered_names(cli, unc ? unc_names() : bnp_names());

  Sweep sweep;
  sweep.axis("ccr", {kRgposCcrs[0], kRgposCcrs[1], kRgposCcrs[2]});
  std::vector<double> sizes;
  for (NodeId v = 50; v <= max_v; v += 50) sizes.push_back(v);
  sweep.axis("v", sizes);

  OutStream out = make_out(ctx, exp);
  ResultSink sink(exp, out.get());

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const double ccr = pt.param("ccr");
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    RgposParams params;
    params.num_nodes = v;
    params.num_procs = procs;
    params.ccr = ccr;
    // width_guard = true for the UNC table: the algorithms are unbounded,
    // so the planted optimum must be a universal lower bound (gen/rgpos.h).
    params.width_guard = unc;
    // The paper's fixed per-(ccr, v) suite keyed by the master seed --
    // the same pairing rgpos_suite() uses, so retiring the standalone
    // benches kept every graph identical.
    std::uint64_t state = jc.master_seed ^
                          (static_cast<std::uint64_t>(v) << 18) ^
                          static_cast<std::uint64_t>(std::llround(ccr * 1000));
    params.seed = splitmix64(state);
    const RgposGraph r = rgpos_graph(params);
    const std::string pivot = "ccr" + Table::fmt(ccr, 1);
    SchedWorkspace& ws = bind_workspace(r.graph);

    SchedOptions opt;
    if (!unc) opt.num_procs = r.num_procs;
    std::vector<Record> records;
    for (const std::string& name : names) {
      const RunResult rr =
          run_scheduler(*make_scheduler(name), r.graph, opt, ws);
      const double deg = percent_degradation(rr.length, r.optimal_length);
      // "Found the optimum" is <= for UNC (the width-guarded plant is a
      // lower bound, so matching it can only happen from above or at
      // equality) and == for BNP, matching the retired benches' counting.
      const bool hit = unc ? rr.length <= r.optimal_length
                           : rr.length == r.optimal_length;
      Record rec = record_from_run(rr, pivot, v, deg);
      rec.num.emplace_back("hit", hit ? 1.0 : 0.0);
      records.push_back(std::move(rec));
    }
    Record ref;
    ref.pivot = pivot;
    ref.row = v;
    ref.column = "L_opt";
    ref.value = static_cast<double>(r.optimal_length);
    ref.num.emplace_back("procs", static_cast<double>(r.num_procs));
    records.push_back(std::move(ref));
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf("RGPOS / %s: seed=%llu, planted on p=%d processors%s\n\n",
                unc ? "UNC" : "BNP", static_cast<unsigned long long>(ctx.seed),
                procs, unc ? " (width-guarded)" : " (bounded to the plant)");
  std::vector<std::string> columns = names;
  columns.push_back("L_opt");
  for (const double ccr : kRgposCcrs) {
    const std::string pivot = "ccr" + Table::fmt(ccr, 1);
    PivotStats stats("v", columns);
    sink.fold(pivot, stats);
    emit(ctx, exp + "_" + pivot,
         (unc ? "Table 4" : "Table 5") +
             std::string(": % degradation from planted optimal, CCR=") +
             Table::fmt(ccr, 1),
         stats.render(1));
  }

  std::map<std::string, StatAccumulator> degs;
  std::map<std::string, int> hits;
  for (const JobResult& jr : sink.results())
    for (const Record& rec : jr.records) {
      if (rec.column == "L_opt") continue;
      degs[rec.column].add(rec.value);
      if (num_field(rec, "hit", 0.0) > 0.0) ++hits[rec.column];
    }
  Table summary({"algo", "#opt", "avg % degradation"});
  for (const std::string& name : names)
    summary.add_row({name, Table::fmt_int(hits[name]),
                     Table::fmt(degs[name].mean(), 1)});
  emit(ctx, exp + "_summary",
       std::string(unc ? "Table 4" : "Table 5") +
           ": optima found / average degradation",
       summary);
  report_sink(ctx, sink, out);
}

void run_table4(const ExpContext& ctx) { run_table_rgpos(ctx, /*unc=*/true); }
void run_table5(const ExpContext& ctx) { run_table_rgpos(ctx, /*unc=*/false); }

}  // namespace

void register_rgpos_experiments(ExperimentRegistry& r) {
  r.add({"table4", "rgpos",
         "UNC %-degradation from planted optima on RGPOS "
         "[--procs, --max-v]",
         run_table4});
  r.add({"table5", "rgpos",
         "BNP %-degradation from planted optima on RGPOS "
         "[--procs, --max-v]",
         run_table5});
}

}  // namespace tgs::bench
