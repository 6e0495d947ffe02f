#include "experiments/experiments.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "tgs/harness/experiment.h"
#include "tgs/sched/metrics.h"
#include "tgs/util/rng.h"

namespace tgs::bench {

void ExperimentRegistry::add(ExperimentDef def) {
  if (find(def.name) != nullptr)
    throw std::logic_error("duplicate experiment '" + def.name + "'");
  defs_.push_back(std::move(def));
}

const ExperimentDef* ExperimentRegistry::find(const std::string& name) const {
  for (const ExperimentDef& d : defs_)
    if (name == d.name) return &d;
  return nullptr;
}

const ExperimentRegistry& experiments() {
  static const ExperimentRegistry registry = [] {
    ExperimentRegistry r;
    register_psg_experiments(r);
    register_rgbos_experiments(r);
    register_rgpos_experiments(r);
    register_rgnos_experiments(r);
    register_traced_experiments(r);
    register_ablation_experiments(r);
    register_runtime_experiments(r);
    register_param_experiments(r);
    register_giant_experiments(r);
    return r;
  }();
  return registry;
}

namespace {

void print_experiments() {
  std::printf("experiments:\n");
  std::string family;
  for (const ExperimentDef& e : experiments().all()) {
    if (e.family != family) {
      family = e.family;
      std::printf(" [%s]\n", family.c_str());
    }
    std::printf("  %-16s %s\n", e.name.c_str(), e.description.c_str());
  }
  std::printf("\nshared flags: --experiment --threads --seed --out --algo "
              "--no-timing --no-csv --quiet\n");
}

}  // namespace

int run_cli(const Cli& cli) {
  if (cli.has("list")) {
    print_experiments();
    return 0;
  }

  std::vector<std::string> wanted = cli.get_list("experiment");
  for (const std::string& p : cli.positional()) wanted.push_back(p);
  if (wanted.empty()) {
    std::fprintf(stderr,
                 "usage: %s --experiment=NAME [flags] (--list for help)\n",
                 cli.program().c_str());
    return 2;
  }

  ExpContext ctx;
  ctx.cli = &cli;
  ctx.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1998));
  int threads = static_cast<int>(cli.get_int("threads", 0));
  if (threads <= 0) threads = std::max(1u, std::thread::hardware_concurrency());
  ctx.threads = threads;
  ctx.timing = !cli.has("no-timing");
  ctx.csv = !cli.has("no-csv");
  ctx.quiet = cli.has("quiet");

  for (std::size_t i = 0; i < wanted.size(); ++i) {
    const ExperimentDef* def = experiments().find(wanted[i]);
    if (def == nullptr) {
      std::fprintf(stderr, "unknown experiment '%s'\n\n", wanted[i].c_str());
      print_experiments();
      return 2;
    }
    ctx.append_out = i > 0;
    def->run(ctx);
  }
  return 0;
}

// ------------------------------------------------------------ the driver --

namespace {

/// The --out JSONL writer of `experiment`, or nullptr when disabled; sets
/// `path` to the file it writes (left empty for stdout).
std::unique_ptr<JsonlWriter> open_out(const ExpContext& ctx,
                                      const std::string& experiment,
                                      std::string& path) {
  const std::string spec = ctx.cli->get("out", "");
  if (spec == "none") return nullptr;
  if (spec == "-") return std::make_unique<JsonlWriter>(std::cout);
  path = spec;
  bool append = ctx.append_out;
  if (path.empty()) {
    std::error_code ec;
    std::filesystem::create_directories("bench_results", ec);
    path = "bench_results/" + experiment + ".jsonl";
    append = false;  // per-experiment default files never collide
  }
  auto writer = std::make_unique<JsonlWriter>(path, append);
  if (writer->ok()) return writer;
  std::fprintf(stderr, "warning: cannot write %s; JSONL disabled\n",
               path.c_str());
  path.clear();
  return nullptr;
}

}  // namespace

void emit(const ExpContext& ctx, const std::string& name,
          const std::string& title, const Table& table) {
  if (!ctx.quiet)
    std::printf("== %s ==\n%s\n", title.c_str(), table.to_ascii().c_str());
  if (!ctx.csv) return;
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  const std::string path = "bench_results/" + name + ".csv";
  if (!table.write_csv(path))
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  else if (!ctx.quiet)
    std::printf("[csv: %s]\n\n", path.c_str());
}

void Report::pivot(const std::string& pivot, const std::string& rows,
                   const std::vector<std::string>& columns, int precision,
                   const std::string& csv, const std::string& title) const {
  if (columns.empty()) return;
  PivotStats stats(rows, columns);
  sink.fold(pivot, stats);
  emit(ctx, csv, title, stats.render(precision));
}

void run_experiment(const ExpContext& ctx, const std::string& name,
                    const Sweep& sweep, const SweepJobFn& job,
                    const std::function<void(const Report&)>& report) {
  std::string path;
  const std::unique_ptr<JsonlWriter> out = open_out(ctx, name, path);
  ResultSink sink(name, out.get());
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);
  report(Report{ctx, sink});
  if (!ctx.quiet && !path.empty()) std::printf("[jsonl: %s]\n", path.c_str());
  if (sink.num_errors() > 0)
    std::fprintf(stderr, "warning: %zu job(s) failed; first error: %s\n",
                 sink.num_errors(), sink.first_error().c_str());
}

std::vector<double> range(double first, double last, double step) {
  std::vector<double> out;
  for (double x = first; x <= last; x += step) out.push_back(x);
  return out;
}

Record cell(std::string pivot, double row, std::string column, double value,
            std::vector<std::pair<std::string, double>> num) {
  return {std::move(pivot), row, std::move(column), value, std::move(num), {}};
}

std::string ccr_pivot(double ccr) { return "ccr" + Table::fmt(ccr, 1); }

std::string panel(const std::string& figure, AlgoClass cls) {
  switch (cls) {
    case AlgoClass::kUNC: return figure + "a";
    case AlgoClass::kBNP: return figure + "b";
    case AlgoClass::kAPN: return figure + "c";
  }
  return figure;
}

// ------------------------------------------------------------- the slate --

namespace {

/// Pass-through that throws (surfacing as a job error in the sink) when a
/// run produced an invalid schedule, so bogus lengths never fold silently
/// into a table.
const RunResult& require_valid(const RunResult& r) {
  if (!r.valid)
    throw std::runtime_error("invalid " + r.algo + " schedule: " + r.error);
  return r;
}

std::vector<std::string> class_names(AlgoClass cls) {
  switch (cls) {
    case AlgoClass::kUNC: return unc_names();
    case AlgoClass::kBNP: return bnp_names();
    case AlgoClass::kAPN: return apn_names();
  }
  return {};
}

bool contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

/// --algo's values, after checking each names one of `known`.
std::vector<std::string> algo_filter(const Cli* cli,
                                     const std::vector<std::string>& known) {
  if (cli == nullptr) return {};
  const std::vector<std::string> want = cli->get_list("algo");
  for (const std::string& w : want)
    if (!contains(known, w))
      throw std::invalid_argument("--algo=" + w +
                                  " matches no algorithm of this experiment");
  return want;
}

}  // namespace

Slate::Slate(const Cli& cli, const std::vector<AlgoClass>& classes,
             ApnLabel apn_label) {
  std::vector<std::string> known;
  for (const AlgoClass cls : classes)
    for (const std::string& n : class_names(cls)) known.push_back(n);
  const std::vector<std::string> want = algo_filter(&cli, known);
  for (const AlgoClass cls : classes)
    for (const std::string& n : class_names(cls))
      if (want.empty() || contains(want, n))
        add(n, cls == AlgoClass::kAPN, apn_label);
}

Slate::Slate(const std::vector<std::string>& names, const Cli* cli) {
  const std::vector<std::string> want = algo_filter(cli, names);
  for (const std::string& n : names)
    if (want.empty() || contains(want, n)) add(n, false, nullptr);
}

void Slate::add(const std::string& name, bool apn, ApnLabel apn_label) {
  SlateEntry e;
  if (apn) {
    e.apn = make_apn_scheduler(name);
    e.cls = AlgoClass::kAPN;
    e.column = apn_label != nullptr ? apn_label(name) : name;
  } else {
    e.sched = make_scheduler(name);
    e.cls = e.sched->algo_class();
    // The canonical name: param: shorthands normalize (e.g. a trailing
    // "/none"), and the column must match the records' RunResult::algo.
    e.column = e.sched->name();
  }
  entries_.push_back(std::move(e));
}

std::vector<std::string> Slate::columns() const {
  std::vector<std::string> out;
  for (const SlateEntry& e : entries_) out.push_back(e.column);
  return out;
}

std::vector<std::string> Slate::columns(AlgoClass cls) const {
  std::vector<std::string> out;
  for (const SlateEntry& e : entries_)
    if (e.cls == cls) out.push_back(e.column);
  return out;
}

RunResult Slate::run(const SlateEntry& e, const TaskGraph& g,
                     SchedWorkspace& ws, const SchedOptions& opt,
                     std::optional<Schedule>* kept) const {
  if (e.apn != nullptr) return run(e, g, ws, hcube3_);
  RunResult rr = require_valid(run_scheduler(*e.sched, g, opt, ws, kept));
  rr.algo = e.column;
  return rr;
}

RunResult Slate::run(const SlateEntry& e, const TaskGraph& g,
                     SchedWorkspace& ws, const RoutingTable& routes) const {
  RunResult rr = require_valid(run_apn_scheduler(*e.apn, g, routes, ws));
  rr.algo = e.column;
  return rr;
}

std::vector<RunResult> Slate::run_all(const TaskGraph& g, SchedWorkspace& ws,
                                      const SchedOptions& opt) const {
  std::vector<RunResult> runs;
  for (const SlateEntry& e : entries_) runs.push_back(run(e, g, ws, opt));
  return runs;
}

SchedWorkspace& bind_workspace(const TaskGraph& g) {
  static thread_local SchedWorkspace ws;
  ws.begin_graph(g);
  return ws;
}

// ------------------------------------------------------------ RGNOS grid --

TaskGraph rgnos_sample(NodeId v, double ccr, int parallelism,
                       std::uint64_t seed) {
  RgnosParams params;
  params.num_nodes = v;
  params.ccr = ccr;
  params.parallelism = parallelism;
  params.seed = seed;
  return rgnos_graph(params);
}

std::vector<std::pair<double, int>> rgnos_reps(bool full) {
  if (full) {
    std::vector<std::pair<double, int>> all;
    for (double ccr : {0.1, 0.5, 1.0, 2.0, 10.0})
      for (int par : {1, 2, 3, 4, 5}) all.emplace_back(ccr, par);
    return all;
  }
  return {{0.1, 3}, {1.0, 1}, {1.0, 3}, {2.0, 5}, {10.0, 3}};
}

Sweep rgnos_size_sweep(NodeId max_nodes, std::size_t num_reps) {
  Sweep sweep;
  sweep.axis("v", range(50, max_nodes, 50))
      .axis("grid", range(0, static_cast<double>(num_reps) - 1));
  return sweep;
}

RgnosJobGraph rgnos_graph_at(const JobContext& jc, const SweepPoint& pt,
                             const std::vector<std::pair<double, int>>& reps) {
  const auto& [ccr, par] = reps[static_cast<std::size_t>(pt.param("grid"))];
  return {rgnos_sample(static_cast<NodeId>(pt.param("v")), ccr, par, jc.seed),
          ccr, par};
}

// ---------------------------------------------------- optimality suites --

BBOptions bb_options(const ExpContext& ctx) {
  BBOptions bb;
  bb.time_limit_seconds = 0.0;  // wall clock would break reproducibility
  bb.max_nodes =
      static_cast<std::uint64_t>(ctx.cli->get_int("bb-nodes", 250'000));
  // Defaulting to the engine's --threads can oversubscribe (jobs x B&B
  // workers) on wide sweeps; results are byte-identical either way, so
  // pass --bb-threads=1 when the job grid alone saturates the machine.
  bb.num_threads =
      static_cast<int>(ctx.cli->get_int("bb-threads", ctx.threads));
  return bb;
}

std::vector<Record> rgbos_records(const Slate& slate, const TaskGraph& g,
                                  const SchedOptions& opt, int proc_floor,
                                  BBOptions bb, double ccr, NodeId v,
                                  bool hit_field) {
  SchedWorkspace& ws = bind_workspace(g);
  std::vector<RunResult> runs;
  bb.num_procs = proc_floor;
  bb.initial_upper_bound = kTimeInf;
  std::optional<Schedule> kept;
  for (const SlateEntry& e : slate.entries()) {
    const RunResult& rr = runs.emplace_back(slate.run(e, g, ws, opt, &kept));
    bb.num_procs = std::max(bb.num_procs, rr.procs_used);
    if (rr.length < bb.initial_upper_bound) {
      bb.initial_upper_bound = rr.length;
      bb.initial_schedule = std::move(kept);
    }
  }
  const BBResult ref = branch_and_bound(g, bb);

  std::vector<Record> records =
      degradation_records(runs, ref.length, ccr, v, hit_field);
  records.push_back(
      cell(ccr_pivot(ccr), v, "optimal", static_cast<double>(ref.length),
           {{"proven", ref.proven_optimal ? 1.0 : 0.0},
            {"bb_nodes", static_cast<double>(ref.nodes_expanded)}}));
  return records;
}

RgposGraph rgpos_suite_graph(double ccr, NodeId v, int procs,
                             bool width_guard, std::uint64_t master_seed) {
  RgposParams params;
  params.num_nodes = v;
  params.num_procs = procs;
  params.ccr = ccr;
  params.width_guard = width_guard;
  std::uint64_t state = master_seed ^ (static_cast<std::uint64_t>(v) << 18) ^
                        static_cast<std::uint64_t>(std::llround(ccr * 1000));
  params.seed = splitmix64(state);
  return rgpos_graph(params);
}

std::vector<Record> degradation_records(const std::vector<RunResult>& runs,
                                        Time reference, double ccr, NodeId v,
                                        bool hit_field) {
  std::vector<Record> records;
  for (const RunResult& rr : runs) {
    const double deg = percent_degradation(rr.length, reference);
    records.push_back(record_from_run(rr, ccr_pivot(ccr), v, deg));
    if (hit_field)
      records.back().num.emplace_back("hit",
                                      rr.length <= reference ? 1.0 : 0.0);
  }
  return records;
}

OptimalityTally tally_optimality(const ResultSink& sink,
                                 const std::string& reference) {
  OptimalityTally t;
  for (const JobResult& jr : sink.results()) {
    std::vector<double> values;
    for (const Record& rec : jr.records) {
      if (rec.column != reference) {
        values.push_back(rec.value);
        continue;
      }
      ++t.instances;
      for (const auto& [key, x] : rec.num)
        if (key == "proven" && x > 0.0) ++t.proven;
    }
    for (const Record& rec : jr.records) {
      if (rec.column == reference) continue;
      double rank = 1.0;
      for (const double other : values)
        if (other < rec.value) rank += 1.0;
      t.rank_sum[rec.column] += rank;
      t.degradation[rec.column].add(rec.value);
      if (rec.value <= 0.0) ++t.hits[rec.column];
    }
  }
  return t;
}

Table optimality_summary(const std::vector<std::string>& names,
                         OptimalityTally tally) {
  Table summary({"algo", "#opt", "avg % degradation"});
  for (const std::string& name : names)
    summary.add_row({name, Table::fmt_int(tally.hits[name]),
                     Table::fmt(tally.degradation[name].mean(), 1)});
  return summary;
}

}  // namespace tgs::bench
