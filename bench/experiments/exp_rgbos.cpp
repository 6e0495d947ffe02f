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
#include <cstdio>

#include "experiments/experiments.h"
#include "tgs/gen/rgbos.h"

namespace tgs::bench {
namespace {

void run_table_rgbos(const ExpContext& ctx, bool unc) {
  const Cli& cli = *ctx.cli;
  const std::string exp = unc ? "table2" : "table3";
  const int procs = static_cast<int>(cli.get_int("procs", 2));
  const BBOptions bb = bb_options(ctx);
  const NodeId max_v = static_cast<NodeId>(
      cli.get_int("max-v", static_cast<std::int64_t>(kRgbosMaxNodes)));
  const Slate slate(cli, {unc ? AlgoClass::kUNC : AlgoClass::kBNP});

  Sweep sweep;
  sweep.axis("ccr", {kRgbosCcrs[0], kRgbosCcrs[1], kRgbosCcrs[2]})
      .axis("v", range(kRgbosMinNodes, max_v, kRgbosStep));

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const double ccr = pt.param("ccr");
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    // RGBOS is a fixed suite keyed by the master seed (paper §5.2); the
    // per-job stream is not used because the suite has no replications.
    SchedOptions opt;
    if (!unc) opt.num_procs = procs;
    return rgbos_records(slate, rgbos_graph(ccr, v, jc.master_seed), opt,
                         procs, bb, ccr, v, /*hit_field=*/false);
  };
  run_experiment(ctx, exp, sweep, job, [&](const Report& r) {
    if (!ctx.quiet)
      std::printf("RGBOS / %s: seed=%llu, p=%d, B&B budget=%llu nodes x %d "
                  "B&B threads, %d worker threads\n\n",
                  unc ? "UNC" : "BNP",
                  static_cast<unsigned long long>(ctx.seed), procs,
                  static_cast<unsigned long long>(bb.max_nodes),
                  bb.num_threads, ctx.threads);
    std::vector<std::string> columns = slate.columns();
    columns.push_back("optimal");
    for (const double ccr : kRgbosCcrs)
      r.pivot(ccr_pivot(ccr), "v", columns, 1, exp + "_" + ccr_pivot(ccr),
              (unc ? "Table 2" : "Table 3") +
                  std::string(": % degradation from optimal, CCR=") +
                  Table::fmt(ccr, 1));

    // Paper-style footer: optimal hits and average degradation per
    // algorithm.
    const OptimalityTally tally = tally_optimality(r.sink, "optimal");
    emit(ctx, exp + "_summary",
         "References proven optimal: " + Table::fmt_int(tally.proven) + "/" +
             Table::fmt_int(tally.instances),
         optimality_summary(slate.columns(), tally));
  });
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
