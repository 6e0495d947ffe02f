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
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "experiments/experiments.h"
#include "tgs/gen/rgbos.h"
#include "tgs/gen/rgpos.h"
#include "tgs/harness/registry.h"
#include "tgs/harness/runner.h"
#include "tgs/optimal/bb_scheduler.h"
#include "tgs/param/param_spec.h"
#include "tgs/sched/metrics.h"
#include "tgs/util/rng.h"
#include "tgs/util/stats.h"

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
  const std::string exp = "param_sweep";
  const std::string suite = cli.get("suite", "rgbos");
  if (suite != "rgbos" && suite != "rgpos")
    throw std::invalid_argument("--suite must be rgbos or rgpos, got '" +
                                suite + "'");
  const bool rgbos = suite == "rgbos";
  const std::uint64_t bb_nodes =
      static_cast<std::uint64_t>(cli.get_int("bb-nodes", 250'000));
  const int bb_threads =
      static_cast<int>(cli.get_int("bb-threads", ctx.threads));
  const int procs = static_cast<int>(cli.get_int("procs", 4));
  const NodeId max_v = static_cast<NodeId>(cli.get_int(
      "max-v", rgbos ? static_cast<std::int64_t>(kRgbosMaxNodes) : 500));
  const int top = static_cast<int>(cli.get_int("top", 20));

  const std::vector<ParamSpec> combos = combo_grid(cli);
  std::vector<std::string> names;
  for (const ParamSpec& s : combos) names.push_back(s.to_string());

  // --ccr=0.1,1.0 restricts the suite's CCR subsets.
  Sweep sweep;
  {
    const std::vector<std::string> wanted = cli.get_list("ccr");
    std::vector<double> ccrs;
    for (const double c : rgbos ? kRgbosCcrs : kRgposCcrs) {
      if (!wanted.empty() &&
          std::find(wanted.begin(), wanted.end(), Table::fmt(c, 1)) ==
              wanted.end())
        continue;
      ccrs.push_back(c);
    }
    if (ccrs.empty())
      throw std::invalid_argument(
          "--ccr matched no suite CCR (use 0.1, 1.0, 10.0)");
    sweep.axis("ccr", ccrs);
  }
  std::vector<double> sizes;
  if (rgbos) {
    for (NodeId v = kRgbosMinNodes; v <= max_v; v += kRgbosStep)
      sizes.push_back(v);
  } else {
    for (NodeId v = 50; v <= max_v; v += 50) sizes.push_back(v);
  }
  sweep.axis("v", sizes);

  OutStream out = make_out(ctx, exp);
  ResultSink sink(exp, out.get());

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const double ccr = pt.param("ccr");
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    const std::string pivot = "ccr" + Table::fmt(ccr, 1);

    // Graph + reference, per suite. Both pairings match the tables'
    // experiments exactly, so a combo's numbers here are comparable with
    // table2/table4 rows from the same master seed.
    std::vector<Record> records;
    if (rgbos) {
      const TaskGraph g = rgbos_graph(ccr, v, jc.master_seed);
      SchedWorkspace& ws = bind_workspace(g);
      SchedOptions opt;  // unbounded, as table2 runs the UNC class
      std::vector<RunResult> runs;
      int ref_procs = 1;
      Time best_heur = kTimeInf;
      std::string best_name;
      for (const std::string& name : names) {
        runs.push_back(
            run_scheduler(*make_scheduler(name), g, opt, ws));
        ref_procs = std::max(ref_procs, runs.back().procs_used);
        if (runs.back().length < best_heur) {
          best_heur = runs.back().length;
          best_name = name;
        }
      }
      BBOptions bb;
      bb.num_procs = ref_procs;
      bb.time_limit_seconds = 0.0;
      bb.max_nodes = bb_nodes;
      bb.num_threads = bb_threads;
      bb.initial_upper_bound = best_heur;
      bb.initial_schedule = make_scheduler(best_name)->run(g, opt, ws);
      const BBResult bbr = branch_and_bound(g, bb);
      for (const RunResult& rr : runs) {
        const double deg = percent_degradation(rr.length, bbr.length);
        Record rec = record_from_run(rr, pivot, v, deg);
        rec.num.emplace_back("hit", rr.length <= bbr.length ? 1.0 : 0.0);
        records.push_back(std::move(rec));
      }
      Record ref;
      ref.pivot = pivot;
      ref.row = v;
      ref.column = "optimal";
      ref.value = static_cast<double>(bbr.length);
      ref.num.emplace_back("proven", bbr.proven_optimal ? 1.0 : 0.0);
      ref.num.emplace_back("bb_nodes",
                           static_cast<double>(bbr.nodes_expanded));
      records.push_back(std::move(ref));
    } else {
      RgposParams params;
      params.num_nodes = v;
      params.num_procs = procs;
      params.ccr = ccr;
      params.width_guard = true;  // plant = universal lower bound
      std::uint64_t state = jc.master_seed ^
                            (static_cast<std::uint64_t>(v) << 18) ^
                            static_cast<std::uint64_t>(std::llround(ccr * 1000));
      params.seed = splitmix64(state);
      const RgposGraph r = rgpos_graph(params);
      SchedWorkspace& ws = bind_workspace(r.graph);
      SchedOptions opt;
      for (const std::string& name : names) {
        const RunResult rr =
            run_scheduler(*make_scheduler(name), r.graph, opt, ws);
        const double deg = percent_degradation(rr.length, r.optimal_length);
        Record rec = record_from_run(rr, pivot, v, deg);
        rec.num.emplace_back("hit",
                             rr.length <= r.optimal_length ? 1.0 : 0.0);
        records.push_back(std::move(rec));
      }
      Record ref;
      ref.pivot = pivot;
      ref.row = v;
      ref.column = "optimal";
      ref.value = static_cast<double>(r.optimal_length);
      ref.num.emplace_back("proven", 1.0);  // planted: optimal by design
      records.push_back(std::move(ref));
    }
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  if (!ctx.quiet)
    std::printf(
        "param_sweep / %s: seed=%llu, %zu combinations x %zu graphs%s\n\n",
        suite.c_str(), static_cast<unsigned long long>(ctx.seed),
        combos.size(), sink.results().size(),
        rgbos ? "" : " (width-guarded plants)");

  // Mean competition rank per combination across all (ccr, v) coordinates:
  // rank = 1 + #combos strictly better on that graph (ties share a rank).
  // Scale-free across CCR subsets, unlike raw degradation averages.
  std::map<std::string, double> rank_sum;
  std::map<std::string, StatAccumulator> degs;
  std::map<std::string, int> hits;
  int proven = 0, instances = 0;
  for (const JobResult& jr : sink.results()) {
    std::vector<double> values;
    for (const Record& rec : jr.records) {
      if (rec.column == "optimal") {
        ++instances;
        if (num_field(rec, "proven", 0.0) > 0.0) ++proven;
        continue;
      }
      values.push_back(rec.value);
    }
    for (const Record& rec : jr.records) {
      if (rec.column == "optimal") continue;
      double rank = 1.0;
      for (const double v : values)
        if (v < rec.value) rank += 1.0;
      rank_sum[rec.column] += rank;
      degs[rec.column].add(rec.value);
      if (num_field(rec, "hit", 0.0) > 0.0) ++hits[rec.column];
    }
  }

  std::vector<std::string> order = names;
  std::sort(order.begin(), order.end(),
            [&](const std::string& a, const std::string& b) {
              if (rank_sum[a] != rank_sum[b]) return rank_sum[a] < rank_sum[b];
              return a < b;
            });
  const std::map<std::string, std::string> named = named_points();
  const double graphs = instances > 0 ? instances : 1;
  Table ranking({"#", "combination", "named", "mean rank", "avg % deg",
                 "#opt"});
  const int rows = std::min<int>(top, static_cast<int>(order.size()));
  for (int i = 0; i < rows; ++i) {
    const std::string& name = order[i];
    const auto it = named.find(name);
    ranking.add_row({Table::fmt_int(i + 1), name,
                     it != named.end() ? it->second : "",
                     Table::fmt(rank_sum[name] / graphs, 1),
                     Table::fmt(degs[name].mean(), 1),
                     Table::fmt_int(hits[name])});
  }
  emit(ctx, exp + "_ranking",
       "param_sweep: top " + Table::fmt_int(rows) + " of " +
           Table::fmt_int(static_cast<int>(order.size())) +
           " combinations by mean rank (references proven optimal: " +
           Table::fmt_int(proven) + "/" + Table::fmt_int(instances) + ")",
       ranking);
  report_sink(ctx, sink, out);
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
