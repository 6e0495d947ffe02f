// param_sweep: the full crossproduct of the parameterized scheduler
// (src/tgs/param/) measured against optimality references.
//
// The named algorithms are single points of a 4-axis design space
// (metric x ready x insertion x cluster, 7*4*3*4 = 336 combinations); this
// experiment runs EVERY point -- or any --metric/--ready/--insertion/
// --cluster filtered sub-grid -- over an optimality-checked suite:
//
//   --suite=rgbos (default)  table2 protocol: branch-and-bound references
//                            seeded with the best combination's schedule,
//                            %-degradation per combination
//   --suite=rgpos            table4 protocol: width-guarded planted optima
//                            (universal lower bounds), unbounded runs
//
// Per-combination quality is summarized as the mean competition rank
// across all (ccr, v) coordinates -- the fair aggregate when degradations
// have wildly different scales across CCRs -- plus average degradation and
// optimum hits. tools/bench_summary.py --ranks reproduces the ranking
// from the JSONL stream.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

#include "experiments/experiments.h"
#include "tgs/gen/rgbos.h"
#include "tgs/param/param_spec.h"

namespace tgs::bench {
namespace {

// The filtered values of one spec axis: --<flag>=tok1,tok2 keeps the listed
// tokens (validated against the axis's token table), no flag keeps all.
template <typename Enum, typename TokenFn>
std::vector<Enum> axis_values(const Cli& cli, const std::string& flag,
                              const std::vector<Enum>& all, TokenFn token) {
  const std::vector<std::string> wanted = cli.get_list(flag);
  if (wanted.empty()) return all;
  std::vector<Enum> out;
  for (const std::string& w : wanted) {
    bool found = false;
    for (Enum e : all) {
      if (w == token(e)) {
        if (std::find(out.begin(), out.end(), e) == out.end())
          out.push_back(e);
        found = true;
        break;
      }
    }
    if (!found)
      throw std::invalid_argument("--" + flag + "=" + w +
                                  " names no axis token; " +
                                  param_spec_grammar());
  }
  return out;
}

/// The --metric/--ready/--insertion/--cluster filtered crossproduct, in
/// deterministic axis-table order.
std::vector<ParamSpec> combo_grid(const Cli& cli) {
  const auto metrics =
      axis_values(cli, "metric", all_param_metrics(), param_metric_token);
  const auto readies =
      axis_values(cli, "ready", all_param_readies(), param_ready_token);
  const auto insertions = axis_values(cli, "insertion", all_param_insertions(),
                                      param_insertion_token);
  const auto clusters =
      axis_values(cli, "cluster", all_param_clusters(), param_cluster_token);
  std::vector<ParamSpec> out;
  for (const ParamMetric m : metrics)
    for (const ParamReady r : readies)
      for (const ParamInsertion i : insertions)
        for (const ParamCluster c : clusters) out.push_back({m, r, i, c});
  return out;
}

/// spec string -> named algorithm expressed at that point ("HLFET", ...).
std::map<std::string, std::string> named_points() {
  std::map<std::string, std::string> out;
  for (const SchedulerPtr& s : make_unc_and_bnp_schedulers())
    if (const std::optional<ParamSpec> spec = param_spec_of(s->name()))
      out[spec->to_string()] = s->name();
  return out;
}

void run_param_sweep(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const std::string suite = cli.get("suite", "rgbos");
  if (suite != "rgbos" && suite != "rgpos")
    throw std::invalid_argument("--suite must be rgbos or rgpos, got '" +
                                suite + "'");
  const bool rgbos = suite == "rgbos";
  const BBOptions bb = bb_options(ctx);
  const int procs = static_cast<int>(cli.get_int("procs", 4));
  const NodeId max_v = static_cast<NodeId>(cli.get_int(
      "max-v", rgbos ? static_cast<std::int64_t>(kRgbosMaxNodes) : 500));
  const int top = static_cast<int>(cli.get_int("top", 20));

  std::vector<std::string> specs;
  for (const ParamSpec& s : combo_grid(cli)) specs.push_back(s.to_string());
  const Slate slate(specs);
  const std::vector<std::string> names = slate.columns();

  // --ccr=0.1,1.0 restricts the suite's CCR subsets.
  const std::vector<std::string> wanted = cli.get_list("ccr");
  std::vector<double> ccrs;
  for (const double c : rgbos ? kRgbosCcrs : kRgposCcrs)
    if (wanted.empty() || std::find(wanted.begin(), wanted.end(),
                                    Table::fmt(c, 1)) != wanted.end())
      ccrs.push_back(c);
  if (ccrs.empty())
    throw std::invalid_argument(
        "--ccr matched no suite CCR (use 0.1, 1.0, 10.0)");
  Sweep sweep;
  sweep.axis("ccr", ccrs).axis(
      "v", rgbos ? range(kRgbosMinNodes, max_v, kRgbosStep)
                 : range(50, max_v, 50));

  // Graph + reference, per suite. Both match the tables' experiments
  // exactly, so a combo's numbers here are comparable with table2/table4
  // rows from the same master seed; every combination runs unbounded, as
  // table2 and table4 run the UNC class.
  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const double ccr = pt.param("ccr");
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    if (rgbos)
      return rgbos_records(slate, rgbos_graph(ccr, v, jc.master_seed), {},
                           /*proc_floor=*/1, bb, ccr, v, /*hit_field=*/true);
    // width_guard: the plant is a universal lower bound.
    const RgposGraph g = rgpos_suite_graph(ccr, v, procs, true, jc.master_seed);
    std::vector<Record> records =
        degradation_records(slate.run_all(g.graph, bind_workspace(g.graph)),
                            g.optimal_length, ccr, v, /*hit_field=*/true);
    records.push_back(cell(ccr_pivot(ccr), v, "optimal",
                           static_cast<double>(g.optimal_length),
                           {{"proven", 1.0}}));  // planted: optimal by design
    return records;
  };
  run_experiment(ctx, "param_sweep", sweep, job, [&](const Report& r) {
    if (!ctx.quiet)
      std::printf(
          "param_sweep / %s: seed=%llu, %zu combinations x %zu graphs%s\n\n",
          suite.c_str(), static_cast<unsigned long long>(ctx.seed),
          names.size(), r.sink.results().size(),
          rgbos ? "" : " (width-guarded plants)");

    // Mean competition rank per combination across all (ccr, v)
    // coordinates: scale-free across CCR subsets, unlike raw degradation
    // averages.
    OptimalityTally tally = tally_optimality(r.sink, "optimal");
    std::vector<std::string> order = names;
    std::sort(order.begin(), order.end(),
              [&](const std::string& a, const std::string& b) {
                if (tally.rank_sum[a] != tally.rank_sum[b])
                  return tally.rank_sum[a] < tally.rank_sum[b];
                return a < b;
              });
    const std::map<std::string, std::string> named = named_points();
    const double graphs = tally.instances > 0 ? tally.instances : 1;
    Table ranking(
        {"#", "combination", "named", "mean rank", "avg % deg", "#opt"});
    const int rows = std::min<int>(top, static_cast<int>(order.size()));
    for (int i = 0; i < rows; ++i) {
      const std::string& name = order[i];
      const auto it = named.find(name);
      ranking.add_row({Table::fmt_int(i + 1), name,
                       it != named.end() ? it->second : "",
                       Table::fmt(tally.rank_sum[name] / graphs, 1),
                       Table::fmt(tally.degradation[name].mean(), 1),
                       Table::fmt_int(tally.hits[name])});
    }
    emit(ctx, "param_sweep_ranking",
         "param_sweep: top " + Table::fmt_int(rows) + " of " +
             Table::fmt_int(static_cast<int>(order.size())) +
             " combinations by mean rank (references proven optimal: " +
             Table::fmt_int(tally.proven) + "/" +
             Table::fmt_int(tally.instances) + ")",
         ranking);
  });
}

}  // namespace

void register_param_experiments(ExperimentRegistry& r) {
  r.add({"param_sweep", "param",
         "parameterized-scheduler crossproduct vs optimality references "
         "[--suite=rgbos|rgpos, --metric, --ready, --insertion, --cluster, "
         "--ccr, --max-v, --bb-nodes, --bb-threads, --procs, --top]",
         run_param_sweep});
}

}  // namespace tgs::bench
