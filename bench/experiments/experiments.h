// The experiment layer of tgs_bench: every paper table/figure/ablation is
// a registered experiment running on the parallel execution engine
// (src/tgs/exec/). One translation unit per experiment family
// (exp_<family>.cpp) registers its experiments here; the driver
// (bench/tgs_bench.cpp) only parses flags and dispatches.
//
// Every experiment follows the paper's §6 protocol through three shared
// pieces of this header:
//  * run_experiment(), the skeleton: it owns the --out stream, the result
//    sink, the sweep run and the footer. An experiment supplies only its
//    Sweep (one Job per graph), the job, and a report step that prints
//    its header and renders pivots with one Report::pivot() call each;
//  * a Slate, the experiment's algorithms: built once per run from --algo
//    over the classes it asks for (or from an explicit name list), shared
//    read-only by every job, and run through the validated runner, so a
//    schedule that fails the oracle becomes a job error instead of a
//    number in a table;
//  * the optimality suites: rgbos_records() (the slate, then a
//    branch-and-bound reference seeded with the best heuristic),
//    rgpos_suite_graph() (the planted-optimum graph of one suite cell),
//    and tally_optimality() + optimality_summary() (#opt and average
//    degradation), shared by table2-5 and param_sweep.
//
// Contract for an experiment body:
//  * derive all randomness from JobContext seeds (or documented pairing
//    formulas on the master seed) -- never from shared mutable state,
//  * emit Records through the job so the JSONL stream, CSVs and rendered
//    tables are byte-identical at any --threads,
//  * route every wall-clock measurement through ExpContext::time_value()
//    so --no-timing makes the full JSONL stream deterministic,
//  * print tables through Report::pivot()/emit() and respect ctx.quiet.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tgs/exec/result_sink.h"
#include "tgs/exec/sweep.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/rgpos.h"
#include "tgs/harness/registry.h"
#include "tgs/harness/runner.h"
#include "tgs/net/routing.h"
#include "tgs/optimal/bb_scheduler.h"
#include "tgs/util/cli.h"
#include "tgs/util/stats.h"
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

// ------------------------------------------------------------ the driver --

/// Print the ASCII table (unless ctx.quiet) and write the CSV (unless
/// --no-csv) to bench_results/<name>.csv.
void emit(const ExpContext& ctx, const std::string& name,
          const std::string& title, const Table& table);

/// What an experiment's report step works with: the sweep's results in
/// job order, and pivots rendered in one call.
struct Report {
  const ExpContext& ctx;
  const ResultSink& sink;

  /// Fold the records of `pivot` into a `rows` x `columns` PivotStats and
  /// emit() it as bench_results/<csv>.csv with `precision` decimals. Does
  /// nothing when --algo left `columns` empty.
  void pivot(const std::string& pivot, const std::string& rows,
             const std::vector<std::string>& columns, int precision,
             const std::string& csv, const std::string& title) const;
};

/// The skeleton every experiment runs: open the --out stream and a sink
/// named `name`, run `job` once per point of `sweep` on --threads
/// workers, hand the results to `report` (header lines and tables), then
/// print the footer -- the JSONL path, and any job errors (to stderr even
/// when quiet).
void run_experiment(const ExpContext& ctx, const std::string& name,
                    const Sweep& sweep, const SweepJobFn& job,
                    const std::function<void(const Report&)>& report);

/// first, first + step, ... up to and including `last`: the values of a
/// size or replication axis.
std::vector<double> range(double first, double last, double step = 1.0);

/// A record that is not one algorithm's run (a reference, a ratio, an
/// indicator), with numeric fields `num`.
Record cell(std::string pivot, double row, std::string column, double value,
            std::vector<std::pair<std::string, double>> num = {});

/// "ccr<CCR with one decimal>": the pivot of one CCR subset.
std::string ccr_pivot(double ccr);

/// The paper figures' panel of a class: `figure` + "a" (UNC), "b" (BNP)
/// or "c" (APN).
std::string panel(const std::string& figure, AlgoClass cls);

// ------------------------------------------------------------- the slate --

/// One algorithm of a Slate.
struct SlateEntry {
  std::string column;    // pivot column, and the RunResult::algo of its runs
  AlgoClass cls = AlgoClass::kBNP;
  SchedulerPtr sched;    // UNC and BNP
  ApnSchedulerPtr apn;   // APN
};

/// An experiment's algorithms, built once per run and shared read-only by
/// every job. run() is the validated runner: run_scheduler, or
/// run_apn_scheduler on an 8-processor hypercube, then require_valid().
class Slate {
 public:
  /// How a slate labels an APN algorithm's column, given its name.
  using ApnLabel = std::string (*)(const std::string& name);

  /// The algorithms of `classes`, class by class in that order and each
  /// class in registry order, narrowed by --algo. Throws
  /// std::invalid_argument when an --algo value names none of them -- a
  /// typo must not silently run an empty slate. APN columns are
  /// `apn_label(name)` when given, else the plain name.
  Slate(const Cli& cli, const std::vector<AlgoClass>& classes,
        ApnLabel apn_label = nullptr);
  /// The UNC/BNP algorithms or param: specs `names`, in that order; with
  /// `cli`, narrowed by --algo as above.
  explicit Slate(const std::vector<std::string>& names,
                 const Cli* cli = nullptr);

  const std::vector<SlateEntry>& entries() const { return entries_; }
  /// The column labels of the whole slate, or of its `cls` entries.
  std::vector<std::string> columns() const;
  std::vector<std::string> columns(AlgoClass cls) const;

  /// Run `e` on `g` (UNC/BNP at `opt`, APN on the hypercube) and return
  /// the validated result, its algo set to e.column. With `kept`, a
  /// UNC/BNP entry's schedule is moved there.
  RunResult run(const SlateEntry& e, const TaskGraph& g, SchedWorkspace& ws,
                const SchedOptions& opt = {},
                std::optional<Schedule>* kept = nullptr) const;
  /// Run the APN entry `e` on the machine `routes` instead.
  RunResult run(const SlateEntry& e, const TaskGraph& g, SchedWorkspace& ws,
                const RoutingTable& routes) const;
  /// run() of every entry, in slate order.
  std::vector<RunResult> run_all(const TaskGraph& g, SchedWorkspace& ws,
                                 const SchedOptions& opt = {}) const;

 private:
  void add(const std::string& name, bool apn, ApnLabel apn_label);

  std::vector<SlateEntry> entries_;
  RoutingTable hcube3_{Topology::hypercube(3)};
};

/// Thread-local scheduling workspace, rebound to `g`. Call once per
/// generated graph inside a job and pass the result to every run on that
/// graph: per-graph attributes (static levels, ALAP, ...) are then
/// computed once per graph instead of once per algorithm, and scratch
/// capacity is recycled across all the jobs a worker thread executes.
/// Workspace state never influences a schedule, so sweeps stay
/// byte-identical at any --threads.
SchedWorkspace& bind_workspace(const TaskGraph& g);

// ------------------------------------------------------------ RGNOS grid --

/// The RGNOS graph of `v` nodes at (ccr, parallelism), drawn from `seed`.
TaskGraph rgnos_sample(NodeId v, double ccr, int parallelism,
                       std::uint64_t seed);

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

// ---------------------------------------------------- optimality suites --

/// --bb-nodes (default 250000) and --bb-threads (default --threads) with
/// no wall-clock limit: the round-synchronous search then gives
/// byte-identical results at any thread count.
BBOptions bb_options(const ExpContext& ctx);

/// The RGBOS protocol of table2/3 and param_sweep on one graph: every
/// slate algorithm's validated run at `opt`, then a branch-and-bound
/// reference seeded with the best run's schedule -- so it is never worse
/// than any heuristic, even when the node budget runs dry -- searched on
/// as many processors as the widest run used, at least `proc_floor`.
/// Returns each run's degradation_records(), then the "optimal" reference
/// record ("proven", "bb_nodes").
std::vector<Record> rgbos_records(const Slate& slate, const TaskGraph& g,
                                  const SchedOptions& opt, int proc_floor,
                                  BBOptions bb, double ccr, NodeId v,
                                  bool hit_field);

/// The RGPOS suite graph of (ccr, v), planted on `procs` processors: the
/// paper's fixed per-(ccr, v) suite keyed by the master seed, with the
/// seed pairing rgpos_suite() uses. `width_guard` makes the plant a lower
/// bound for unbounded runs (gen/rgpos.h).
RgposGraph rgpos_suite_graph(double ccr, NodeId v, int procs,
                             bool width_guard, std::uint64_t master_seed);

/// One record per run in pivot ccr_pivot(ccr), row v: its % degradation
/// from `reference`, plus, when `hit_field`, a "hit" flag (length <=
/// reference: the run matched the reference no valid run can beat).
std::vector<Record> degradation_records(const std::vector<RunResult>& runs,
                                        Time reference, double ccr, NodeId v,
                                        bool hit_field);

/// Per-algorithm totals of an optimality sweep. Records in column
/// `reference` are the references; every other record is a run whose
/// value is its % degradation.
struct OptimalityTally {
  std::map<std::string, StatAccumulator> degradation;
  std::map<std::string, int> hits;         // runs at <= 0 % degradation
  std::map<std::string, double> rank_sum;  // summed per-graph competition
                                           // ranks (1 + #runs strictly better)
  int proven = 0;     // references with "proven" set
  int instances = 0;  // references
};
OptimalityTally tally_optimality(const ResultSink& sink,
                                 const std::string& reference);

/// The "algo | #opt | avg % degradation" table of `names`.
Table optimality_summary(const std::vector<std::string>& names,
                         OptimalityTally tally);

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
