#include "experiments/experiments.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <thread>

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

// ------------------------------------------------------------- helpers ----

std::vector<std::string> filtered_names(const Cli& cli,
                                        std::vector<std::string> names) {
  const std::vector<std::string> want = cli.get_list("algo");
  if (want.empty()) return names;
  std::vector<std::string> out;
  for (const std::string& n : names)
    if (std::find(want.begin(), want.end(), n) != want.end()) out.push_back(n);
  return out;
}

void check_algo_filter(
    const Cli& cli, const std::vector<std::vector<std::string>>& known_sets) {
  for (const std::string& want : cli.get_list("algo")) {
    bool known = false;
    for (const auto& set : known_sets)
      known = known ||
              std::find(set.begin(), set.end(), want) != set.end();
    if (!known)
      throw std::invalid_argument("--algo=" + want +
                                  " matches no algorithm of this experiment");
  }
}

double num_field(const Record& rec, const std::string& key, double fallback) {
  for (const auto& [k, v] : rec.num)
    if (k == key) return v;
  return fallback;
}

OutStream make_out(const ExpContext& ctx, const std::string& experiment) {
  const Cli& cli = *ctx.cli;
  OutStream out;
  const std::string spec = cli.get("out", "");
  if (spec == "none") return out;
  if (spec == "-") {
    out.writer = std::make_unique<JsonlWriter>(std::cout);
    return out;
  }
  std::string path = spec;
  bool append = ctx.append_out;
  if (path.empty()) {
    std::error_code ec;
    std::filesystem::create_directories("bench_results", ec);
    path = "bench_results/" + experiment + ".jsonl";
    append = false;  // per-experiment default files never collide
  }
  out.writer = std::make_unique<JsonlWriter>(path, append);
  if (!out.writer->ok()) {
    std::fprintf(stderr, "warning: cannot write %s; JSONL disabled\n",
                 path.c_str());
    out.writer.reset();
    return out;
  }
  out.path = path;
  return out;
}

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

void report_sink(const ExpContext& ctx, const ResultSink& sink,
                 const OutStream& out) {
  if (!ctx.quiet && !out.path.empty())
    std::printf("[jsonl: %s]\n", out.path.c_str());
  if (sink.num_errors() > 0)
    std::fprintf(stderr, "warning: %zu job(s) failed; first error: %s\n",
                 sink.num_errors(), sink.first_error().c_str());
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
  std::vector<double> sizes;
  for (NodeId v = 50; v <= max_nodes; v += 50) sizes.push_back(v);
  std::vector<double> grid;
  for (std::size_t i = 0; i < num_reps; ++i) grid.push_back(i);
  sweep.axis("v", sizes).axis("grid", grid);
  return sweep;
}

RgnosJobGraph rgnos_graph_at(const JobContext& jc, const SweepPoint& pt,
                             const std::vector<std::pair<double, int>>& reps) {
  const auto& [ccr, par] = reps[static_cast<std::size_t>(pt.param("grid"))];
  RgnosParams params;
  params.num_nodes = static_cast<NodeId>(pt.param("v"));
  params.ccr = ccr;
  params.parallelism = par;
  params.seed = jc.seed;
  return {rgnos_graph(params), ccr, par};
}

const RunResult& require_valid(const RunResult& r) {
  if (!r.valid)
    throw std::runtime_error("invalid " + r.algo + " schedule: " + r.error);
  return r;
}

SchedWorkspace& bind_workspace(const TaskGraph& g) {
  static thread_local SchedWorkspace ws;
  ws.begin_graph(g);
  return ws;
}

}  // namespace tgs::bench
