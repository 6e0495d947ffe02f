// The experiment layer of tgs_bench: every paper table/figure/ablation is
// a registered experiment running on the parallel execution engine
// (src/tgs/exec/). One translation unit per experiment family
// (exp_<family>.cpp) registers its experiments here; the driver
// (bench/tgs_bench.cpp) only parses flags and dispatches.
//
// Contract for an experiment body:
//  * expand the parameter grid into a Sweep (one Job per graph),
//  * derive all randomness from JobContext seeds (or documented pairing
//    formulas on the master seed) -- never from shared mutable state,
//  * emit Records through the ResultSink so the JSONL stream, CSVs and
//    rendered tables are byte-identical at any --threads,
//  * route every wall-clock measurement through ExpContext::time_value()
//    so --no-timing makes the full JSONL stream deterministic,
//  * print tables through emit() and respect ctx.quiet.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tgs/exec/result_sink.h"
#include "tgs/exec/sweep.h"
#include "tgs/gen/rgnos.h"
#include "tgs/harness/runner.h"
#include "tgs/util/cli.h"
#include "tgs/util/table.h"

namespace tgs::bench {

/// Shared per-invocation state handed to every experiment.
struct ExpContext {
  const Cli* cli = nullptr;
  std::uint64_t seed = 1998;
  int threads = 1;
  // A later experiment of the same invocation appends to an explicit
  // --out file instead of truncating the earlier experiments' records.
  bool append_out = false;
  // --no-timing: wall-clock fields are written as 0 so timing experiments
  // become byte-reproducible (the determinism tests rely on this).
  bool timing = true;
  // --no-csv: skip the bench_results/*.csv dumps.
  bool csv = true;
  // --quiet: suppress stdout tables and headers (tests).
  bool quiet = false;

  /// `seconds` when timing is enabled, 0.0 under --no-timing.
  double time_value(double seconds) const { return timing ? seconds : 0.0; }
};

using ExpRunFn = void (*)(const ExpContext&);

struct ExperimentDef {
  std::string name;
  std::string family;
  std::string description;  // one line, includes experiment-specific flags
  ExpRunFn run = nullptr;
};

class ExperimentRegistry {
 public:
  void add(ExperimentDef def);
  /// Lookup by name; nullptr when unknown.
  const ExperimentDef* find(const std::string& name) const;
  const std::vector<ExperimentDef>& all() const { return defs_; }

 private:
  std::vector<ExperimentDef> defs_;
};

/// The process-wide registry, populated on first use in a fixed family
/// order (psg, rgbos, rgpos, rgnos, traced, ablations, runtimes, param,
/// giant).
const ExperimentRegistry& experiments();

/// Full driver loop: resolve --experiment/positional names, build the
/// ExpContext and run each experiment in order. Returns a process exit
/// code. Factored out of main() so tests can drive the binary's exact
/// behaviour (e.g. --out append semantics) in-process.
int run_cli(const Cli& cli);

// ------------------------------------------------------------- helpers ----

/// Registry-order algorithm names, optionally filtered by --algo.
std::vector<std::string> filtered_names(const Cli& cli,
                                        std::vector<std::string> names);

/// Throws std::invalid_argument when an --algo value names no algorithm
/// of this experiment (`known_sets` = its class name lists) -- a typo
/// must not silently run with an empty algorithm set.
void check_algo_filter(const Cli& cli,
                       const std::vector<std::vector<std::string>>& known_sets);

/// First numeric JSONL field named `key` of `rec`, or `fallback`.
double num_field(const Record& rec, const std::string& key, double fallback);

/// JSONL writer per --out; the writer may be disabled (get() == nullptr).
struct OutStream {
  std::unique_ptr<JsonlWriter> writer;
  std::string path;  // empty when stdout or disabled
  JsonlWriter* get() const { return writer.get(); }
};

OutStream make_out(const ExpContext& ctx, const std::string& experiment);

/// Print the ASCII table (unless ctx.quiet) and write the CSV (unless
/// --no-csv) to bench_results/<name>.csv.
void emit(const ExpContext& ctx, const std::string& name,
          const std::string& title, const Table& table);

/// Footer: the JSONL path and any job errors (errors go to stderr even
/// when quiet).
void report_sink(const ExpContext& ctx, const ResultSink& sink,
                 const OutStream& out);

/// Default RGNOS (CCR, parallelism) replications per size: a diverse
/// 5-graph slice of the paper's 25-combination grid. --full uses all 25.
std::vector<std::pair<double, int>> rgnos_reps(bool full);

/// The RGNOS grid shared by fig2, fig3 and table6 -- sizes 50..max_nodes
/// step 50 crossed with the replication set -- so the three experiments
/// keep seeing the same graph suite for a given master seed. Pair with
/// rgnos_graph_at() inside the job.
Sweep rgnos_size_sweep(NodeId max_nodes, std::size_t num_reps);

struct RgnosJobGraph {
  TaskGraph graph;
  double ccr = 0.0;
  int parallelism = 0;
};

/// The graph of one rgnos_size_sweep() point, drawn from the job's
/// private RNG stream.
RgnosJobGraph rgnos_graph_at(const JobContext& jc, const SweepPoint& pt,
                             const std::vector<std::pair<double, int>>& reps);

/// Pass-through that throws (surfacing as a job error in the sink)
/// when a run produced an invalid schedule, so bogus lengths never fold
/// silently into the averages -- the retired table6 binary hard-failed
/// on this.
const RunResult& require_valid(const RunResult& r);

/// Thread-local scheduling workspace, rebound to `g`. Call once per
/// generated graph inside a job and pass the result to every
/// run_scheduler / run_apn_scheduler on that graph: per-graph attributes
/// (static levels, ALAP, ...) are then computed once per graph instead of
/// once per algorithm, and scratch capacity is recycled across all the
/// jobs a worker thread executes. Workspace state never influences a
/// schedule, so sweeps stay byte-identical at any --threads.
SchedWorkspace& bind_workspace(const TaskGraph& g);

// Family registration hooks, called once by experiments().
void register_psg_experiments(ExperimentRegistry& r);
void register_rgbos_experiments(ExperimentRegistry& r);
void register_rgpos_experiments(ExperimentRegistry& r);
void register_rgnos_experiments(ExperimentRegistry& r);
void register_traced_experiments(ExperimentRegistry& r);
void register_ablation_experiments(ExperimentRegistry& r);
void register_runtime_experiments(ExperimentRegistry& r);
void register_param_experiments(ExperimentRegistry& r);
void register_giant_experiments(ExperimentRegistry& r);

}  // namespace tgs::bench
