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
#include <cstdio>

#include "experiments/experiments.h"

namespace tgs::bench {
namespace {

void run_table_rgpos(const ExpContext& ctx, bool unc) {
  const Cli& cli = *ctx.cli;
  const std::string exp = unc ? "table4" : "table5";
  const int procs = static_cast<int>(cli.get_int("procs", 4));
  const NodeId max_v = static_cast<NodeId>(cli.get_int("max-v", 500));
  const Slate slate(cli, {unc ? AlgoClass::kUNC : AlgoClass::kBNP});

  Sweep sweep;
  sweep.axis("ccr", {kRgposCcrs[0], kRgposCcrs[1], kRgposCcrs[2]})
      .axis("v", range(50, max_v, 50));

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const double ccr = pt.param("ccr");
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    // width_guard for the UNC table: the algorithms are unbounded, so the
    // planted optimum must be a universal lower bound (gen/rgpos.h). The
    // BNP table runs bounded to the plant, where any schedule is at least
    // the plant long, so a hit (length <= plant) is an exact match.
    const RgposGraph g = rgpos_suite_graph(ccr, v, procs, unc, jc.master_seed);
    SchedOptions opt;
    if (!unc) opt.num_procs = g.num_procs;
    std::vector<Record> records = degradation_records(
        slate.run_all(g.graph, bind_workspace(g.graph), opt),
        g.optimal_length, ccr, v, /*hit_field=*/true);
    records.push_back(cell(ccr_pivot(ccr), v, "L_opt",
                           static_cast<double>(g.optimal_length),
                           {{"procs", static_cast<double>(g.num_procs)}}));
    return records;
  };
  run_experiment(ctx, exp, sweep, job, [&](const Report& r) {
    if (!ctx.quiet)
      std::printf("RGPOS / %s: seed=%llu, planted on p=%d processors%s\n\n",
                  unc ? "UNC" : "BNP",
                  static_cast<unsigned long long>(ctx.seed), procs,
                  unc ? " (width-guarded)" : " (bounded to the plant)");
    std::vector<std::string> columns = slate.columns();
    columns.push_back("L_opt");
    for (const double ccr : kRgposCcrs)
      r.pivot(ccr_pivot(ccr), "v", columns, 1, exp + "_" + ccr_pivot(ccr),
              (unc ? "Table 4" : "Table 5") +
                  std::string(": % degradation from planted optimal, CCR=") +
                  Table::fmt(ccr, 1));
    emit(ctx, exp + "_summary",
         std::string(unc ? "Table 4" : "Table 5") +
             ": optima found / average degradation",
         optimality_summary(slate.columns(),
                            tally_optimality(r.sink, "L_opt")));
  });
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
