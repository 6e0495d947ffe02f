// sweep_paper and giant_dag: in-process, single-thread passes over a fixed
// (graph, algorithm) set, the way a tgs_bench sweep runs. No parsing,
// sockets or cache are involved, so these workloads isolate the scheduler
// cores.
//
// A run: set up (generate the graphs) several times, then time whole
// passes until the run's seconds are spent. The first pass also validates
// every schedule (outside the timed calls); every later pass must
// reproduce its makespans exactly, and a fixed check set must reproduce
// its committed digest.
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "tgs/gen/rgnos.h"
#include "tgs/gen/traced.h"
#include "tgs/graph/fingerprint.h"
#include "tgs/harness/registry.h"
#include "tgs/net/net_validate.h"
#include "tgs/net/routing.h"
#include "tgs/sched/validate.h"
#include "tgs/util/mem.h"
#include "tgs/util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tgs::NodeId;
using tgs::TaskGraph;
using tgs::Time;

// Committed digests of the check sets (see golden_digest_*). They change
// only when a change alters a schedule, which the repository's goldens
// forbid; regenerate with `tgs_e2e --print-golden` after a deliberate one.
constexpr const char* kGoldenSweepPaper = "cc263bf676dd65a4";
constexpr const char* kGoldenGiantDag = "2ebafffa87cc96db";

constexpr int kSetups = 3;  // set-ups per run; setup_s is their median

enum class Family { kUnc, kBnp, kApn };

const char* family_prefix(Family f) {
  switch (f) {
    case Family::kUnc: return "unc";
    case Family::kBnp: return "bnp";
    case Family::kApn: return "apn";
  }
  return "?";
}

struct Algo {
  std::string name;
  Family family;
  tgs::SchedulerPtr sched;     // UNC / BNP
  tgs::ApnSchedulerPtr apn;    // APN
};

struct SweepSet {
  std::vector<std::string> graph_names;
  std::vector<TaskGraph> graphs;
  std::vector<Algo> algos;
  /// Indices into `algos` run on each graph, in order.
  std::vector<std::vector<std::size_t>> cells;
  tgs::SchedOptions opt;
  std::unique_ptr<tgs::RoutingTable> routes;  // APN machine, if any

  std::size_t calls() const {
    std::size_t n = 0;
    for (const auto& c : cells) n += c.size();
    return n;
  }
};

void add_algos(SweepSet* set, const std::vector<std::string>& names,
               Family family) {
  for (const std::string& n : names) {
    Algo a{n, family, nullptr, nullptr};
    if (family == Family::kApn)
      a.apn = tgs::make_apn_scheduler(n);
    else
      a.sched = tgs::make_scheduler(n);
    set->algos.push_back(std::move(a));
  }
}

/// Table 6's default set: all 15 algorithms on RGNOS graphs of size
/// v = 50..500 step 50 at table6's (ccr, parallelism) grid points, APN on
/// the 8-processor hypercube. The timed set has all five grid points per
/// size, so the pass time does not hinge on the random structure of one
/// large graph; the check set (`full` false) has one per size, taking the
/// grid points in turn.
SweepSet paper_set(std::uint64_t seed, bool full) {
  static constexpr std::pair<double, int> kGrid[] = {
      {0.1, 3}, {1.0, 1}, {1.0, 3}, {2.0, 5}, {10.0, 3}};
  SweepSet set;
  std::uint64_t stream = 0;
  for (NodeId v = 50; v <= 500; v += 50) {
    for (int j = 0; j < 5; ++j) {
      if (!full && j != static_cast<int>(v / 50 - 1) % 5) continue;
      tgs::RgnosParams p;
      p.num_nodes = v;
      p.ccr = kGrid[j].first;
      p.parallelism = kGrid[j].second;
      p.seed = tgs::derive_seed(seed, stream++);
      set.graph_names.push_back(std::to_string(v) + "/" + std::to_string(j));
      set.graphs.push_back(tgs::rgnos_graph(p));
    }
  }
  add_algos(&set, tgs::unc_names(), Family::kUnc);
  add_algos(&set, tgs::bnp_names(), Family::kBnp);
  add_algos(&set, tgs::apn_names(), Family::kApn);
  std::vector<std::size_t> all(set.algos.size());
  for (std::size_t a = 0; a < all.size(); ++a) all[a] = a;
  set.cells.assign(set.graphs.size(), all);
  set.routes = std::make_unique<tgs::RoutingTable>(tgs::Topology::hypercube(3));
  return set;
}

/// The giant tier on 64 processors (the giant_sweep default): Cholesky
/// dim 446 (v=99,681) under MCP, HLFET, ISH, ETF and DLS; RGNOS v=100k on
/// the linear-edge max_fanout path under MCP and HLFET; FFT n=4096
/// (v=24,576, 2048 wide) under MCP, HLFET, ISH and ETF. The omitted cells
/// would dominate the pass: ETF and DLS on RGNOS-100k run for more than a
/// minute each, ISH on it 2.3 s, DLS on FFT-4096 2.7 s (ETF there already
/// exercises the same pair selector). `small` shrinks every graph for the
/// check set.
SweepSet giant_set(std::uint64_t seed, bool small) {
  SweepSet set;
  set.graph_names = {"cholesky", "rgnos", "fft"};
  set.graphs.push_back(tgs::cholesky_graph(small ? 100 : 446, 1.0));
  tgs::RgnosParams p;
  p.num_nodes = small ? 20000 : 100000;
  p.ccr = 1.0;
  p.parallelism = 3;
  p.max_fanout = 8;
  p.seed = tgs::derive_seed(seed, 0);
  set.graphs.push_back(tgs::rgnos_graph(p));
  set.graphs.push_back(tgs::fft_graph(small ? 512 : 4096, 1.0));
  add_algos(&set, {"MCP", "HLFET", "ISH", "ETF", "DLS"}, Family::kBnp);
  set.cells = {{0, 1, 2, 3, 4}, {0, 1}, {0, 1, 2, 3}};
  set.opt.num_procs = 64;
  return set;
}

enum class PassMode { kValidate, kPlain, kTraced };

/// Reference-kernel samples interleaved with the passes: a burst of three
/// between two calls whenever 100 ms have passed since the last burst, so a
/// run carries a few hundred of them whatever the size of its calls, and
/// their median pins the machine's speed over the run.
struct RefSamples {
  std::vector<double> ms;
  Clock::time_point last{};

  void between_calls() {
    if (Clock::now() - last < std::chrono::milliseconds(100)) return;
    for (int k = 0; k < 3; ++k) ms.push_back(reference_kernel_ms());
    last = Clock::now();
  }
};

struct PassOut {
  double bind_s = 0;            // begin_graph time over the pass
  std::vector<double> call_s;   // graph-major, algo-minor
  std::vector<Time> makespans;  // same order
  std::vector<std::uint64_t> allocs;  // kTraced only
  double validate_s = 0;        // kValidate only
};

/// One pass over the set on a single workspace. Only begin_graph and the
/// scheduler calls are timed; validation and the reference kernel between
/// calls are the benchmark's own work and stay outside the pass time.
PassOut run_pass(const SweepSet& set, tgs::SchedWorkspace& ws, PassMode mode,
                 RunReport* report, RefSamples* ref) {
  PassOut out;
  out.call_s.reserve(set.calls());
  out.makespans.reserve(set.calls());
  for (std::size_t gi = 0; gi < set.graphs.size(); ++gi) {
    const TaskGraph& g = set.graphs[gi];
    auto t0 = Clock::now();
    ws.begin_graph(g);
    out.bind_s += seconds_since(t0);
    for (const std::size_t ai : set.cells[gi]) {
      const Algo& a = set.algos[ai];
      if (ref != nullptr) ref->between_calls();
      const tgs::AllocStats a0 = tgs::alloc_stats();
      t0 = Clock::now();
      Time makespan = 0;
      tgs::ValidationResult valid;
      if (a.family == Family::kApn) {
        tgs::NetSchedule ns = a.apn->run(g, *set.routes, ws);
        const double s = seconds_since(t0);
        out.call_s.push_back(s);
        makespan = ns.makespan();
        if (mode == PassMode::kValidate) {
          const auto v0 = Clock::now();
          valid = tgs::validate_net_schedule(ns);
          out.validate_s += seconds_since(v0);
        }
      } else {
        tgs::Schedule sch = a.sched->run(g, set.opt, ws);
        const double s = seconds_since(t0);
        out.call_s.push_back(s);
        makespan = sch.makespan();
        if (mode == PassMode::kValidate) {
          const auto v0 = Clock::now();
          valid = tgs::validate_schedule(sch, set.opt.num_procs);
          out.validate_s += seconds_since(v0);
        }
      }
      if (mode == PassMode::kTraced)
        out.allocs.push_back(tgs::alloc_stats().count - a0.count);
      out.makespans.push_back(makespan);
      if (!valid) {
        ++report->failed;
        report->fail("invalid " + a.name + " schedule on graph " +
                     set.graph_names[gi] + ": " + valid.error);
      }
    }
  }
  return out;
}

/// The time of one pass, robust to a slow phase of the machine that hits
/// part of one pass: each call's median over the passes, summed, plus the
/// median begin_graph time.
double pass_seconds(const std::vector<PassOut>& passes) {
  std::vector<double> xs;
  for (const PassOut& p : passes) xs.push_back(p.bind_s);
  double total = median(xs);
  for (std::size_t k = 0; k < passes.front().call_s.size(); ++k) {
    xs.clear();
    for (const PassOut& p : passes) xs.push_back(p.call_s[k]);
    total += median(xs);
  }
  return total;
}

/// Digest of (graph fingerprint, algorithm, makespan) over one pass.
std::string results_digest(const SweepSet& set, const PassOut& pass) {
  Digest d;
  std::size_t k = 0;
  for (std::size_t gi = 0; gi < set.graphs.size(); ++gi) {
    const std::string fp = tgs::graph_fingerprint(set.graphs[gi]).hex();
    for (const std::size_t ai : set.cells[gi]) {
      const Algo& a = set.algos[ai];
      d.add(fp + "|" + family_prefix(a.family) + "." + a.name + "|" +
            std::to_string(pass.makespans[k++]));
    }
  }
  return d.hex();
}

std::string inputs_digest(const SweepSet& set) {
  Digest d;
  for (const TaskGraph& g : set.graphs) d.add(tgs::graph_fingerprint(g).hex());
  return d.hex();
}

std::string check_set_digest(const SweepSet& set, RunReport* report) {
  tgs::SchedWorkspace ws;
  const PassOut pass = run_pass(set, ws, PassMode::kValidate, report, nullptr);
  report->attempted += set.calls();
  return results_digest(set, pass);
}

/// Runs whole passes for about args.seconds, and at least `min_passes`
/// (twice that in a traced run, half of them traced).
template <typename Build>
RunReport run_sweep(const RunArgs& args, Build build, int min_passes, bool giant,
                    const std::string& golden_now, const char* golden_want) {
  RunReport r;
  if (golden_now != golden_want)
    r.fail(std::string("check-set digest ") + golden_now + " != committed " +
           golden_want);

  // Set-up: generate the inputs several times; the median is setup_s and
  // every repetition must produce identical graphs.
  std::vector<double> setup_s;
  std::string inputs;
  SweepSet set;
  for (int k = 0; k < kSetups; ++k) {
    set = SweepSet{};
    const auto t0 = Clock::now();
    set = build(args.seed);
    setup_s.push_back(seconds_since(t0));
    const std::string d = inputs_digest(set);
    if (k == 0)
      inputs = d;
    else if (d != inputs)
      r.fail("same seed generated different graphs");
  }

  // peak_rss_mb covers the passes: the set-up's freed memory goes back to
  // the system and the high-water mark restarts from the live inputs.
  reset_peak_rss();

  // Whole passes while the run's seconds last. The first pass validates
  // every schedule; in a traced run, untraced and traced passes then
  // alternate so that the tracing overhead is measured under the same
  // machine conditions.
  RefSamples ref;
  tgs::SchedWorkspace ws;
  std::vector<PassOut> plain, traced;
  const StealMeter steal;
  const auto t_run = Clock::now();
  for (int i = 0;; ++i) {
    const PassMode mode = i == 0                      ? PassMode::kValidate
                          : args.trace && i % 2 == 1 ? PassMode::kTraced
                                                     : PassMode::kPlain;
    std::vector<PassOut>& dst = mode == PassMode::kTraced ? traced : plain;
    dst.push_back(run_pass(set, ws, mode, &r, &ref));
    r.attempted += set.calls();
    for (std::size_t k = 0; k < set.calls(); ++k) {
      if (dst.back().makespans[k] == plain.front().makespans[k]) continue;
      ++r.failed;
      r.fail("a pass changed a makespan of the first pass");
    }
    const double elapsed = seconds_since(t_run);
    const int want = args.trace ? 2 * min_passes : min_passes;
    if (i + 1 >= want && elapsed + elapsed / (i + 1) > args.seconds) break;
  }
  const PassOut& first = plain.front();

  const double steal_pct = steal.percent();
  std::vector<double> pass_s, call_s;
  for (const PassOut& p : plain) {
    double total = p.bind_s;
    for (const double c : p.call_s) total += c;
    pass_s.push_back(total);
    call_s.insert(call_s.end(), p.call_s.begin(), p.call_s.end());
  }
  const double sweep_s = pass_seconds(plain);
  const double calls = static_cast<double>(set.calls());
  const double ref_ms = median(ref.ms);
  const double adj_sched_per_s = machine_adjusted(calls / sweep_s, ref_ms, steal_pct);

  r.note("inputs digest %s, results digest %s, check set %s",
         inputs.c_str(), results_digest(set, first).c_str(),
         golden_now.c_str());
  r.note("sweep_s        %.4f s  (per-call medians over %zu pass(es), summed; "
         "pass totals q1 %.4f, q3 %.4f; %zu calls per pass)",
         sweep_s, pass_s.size(), quantile(pass_s, 0.25),
         quantile(pass_s, 0.75), set.calls());
  r.note("sched_per_s    %.4f 1/s (calls per pass / sweep_s); adj_sched_per_s "
         "%.4f 1/s (x ref %.4f / %.1f ms, / (1 - steal %.2f %%))",
         calls / sweep_s, adj_sched_per_s, ref_ms, kNominalRefMs, steal_pct);
  r.note("call_p50_ms    %.4f ms (n=%zu)", median(call_s) * 1e3, call_s.size());
  r.note("failed_frac    %.6f", static_cast<double>(r.failed) / r.attempted);
  r.note("machine.steal_pct %.2f %% (of all CPU time during the passes)", steal_pct);
  r.note("machine.ref_ms %.4f ms (median of %zu samples)", ref_ms, ref.ms.size());
  r.note("validate.ms    %.2f ms (first pass, outside timing)",
         first.validate_s * 1e3);

  if (!args.trace) {
    r.metrics["adj_sched_per_s"] = adj_sched_per_s;
    r.metrics["peak_rss_mb"] = process_peak_rss_mb(getpid());
    r.metrics["setup_s"] = median(setup_s);
    return r;
  }

  // Traced run: per-algorithm mean time and allocations per call, per-cell
  // medians for the giant graphs, and the overhead of tracing itself.
  r.metrics["machine.ref_ms"] = ref_ms;
  r.metrics["validate.ms"] = first.validate_s * 1e3;
  r.metrics["trace.overhead_pct"] =
      (pass_seconds(traced) - sweep_s) / sweep_s * 100.0;
  struct Sum {
    double secs = 0, allocs = 0, n = 0;
  };
  std::vector<Sum> per_algo(set.algos.size());
  std::size_t k = 0;
  for (std::size_t gi = 0; gi < set.graphs.size(); ++gi) {
    for (const std::size_t ai : set.cells[gi]) {
      const Algo& a = set.algos[ai];
      std::vector<double> cell;
      for (const PassOut& p : traced) {
        per_algo[ai].secs += p.call_s[k];
        per_algo[ai].allocs += static_cast<double>(p.allocs[k]);
        per_algo[ai].n += 1;
        cell.push_back(p.call_s[k]);
      }
      if (giant)
        r.metrics["giant." + set.graph_names[gi] + "." + a.name + "_s"] =
            median(cell);
      ++k;
    }
  }
  for (std::size_t ai = 0; ai < set.algos.size(); ++ai) {
    const Algo& a = set.algos[ai];
    const Sum& s = per_algo[ai];
    const std::string base = std::string(family_prefix(a.family)) + "." + a.name;
    r.metrics[base + ".run_ms"] = s.secs / s.n * 1e3;
    if (a.family != Family::kUnc) r.metrics[base + ".allocs"] = s.allocs / s.n;
  }
  if (giant) {
    // The same MCP run on a fresh workspace (attributes and scratch cold)
    // and again on that workspace still bound to the graph (warm).
    const tgs::SchedulerPtr mcp = tgs::make_scheduler("MCP");
    double total = 0;
    for (const TaskGraph& g : set.graphs) {
      std::vector<double> diff;
      for (int rep = 0; rep < 3; ++rep) {
        tgs::SchedWorkspace fresh;
        auto t0 = Clock::now();
        fresh.begin_graph(g);
        (void)mcp->run(g, set.opt, fresh);
        const double cold = seconds_since(t0);
        t0 = Clock::now();
        (void)mcp->run(g, set.opt, fresh);
        diff.push_back(cold - seconds_since(t0));
      }
      total += median(diff);
    }
    r.metrics["attrs.cold_minus_warm_ms"] = total * 1e3;
  }
  return r;
}

}  // namespace

std::string golden_digest_sweep_paper() {
  RunReport scratch;
  return check_set_digest(paper_set(1, false), &scratch) +
         (scratch.correct ? "" : "-invalid");
}

std::string golden_digest_giant_dag() {
  RunReport scratch;
  return check_set_digest(giant_set(1, true), &scratch) +
         (scratch.correct ? "" : "-invalid");
}

RunReport run_sweep_paper(const RunArgs& args) {
  return run_sweep(
      args, [](std::uint64_t seed) { return paper_set(seed, true); },
      /*min_passes=*/1, /*giant=*/false, golden_digest_sweep_paper(), kGoldenSweepPaper);
}

RunReport run_giant_dag(const RunArgs& args) {
  return run_sweep(
      args, [](std::uint64_t seed) { return giant_set(seed, false); },
      /*min_passes=*/4, /*giant=*/true, golden_digest_giant_dag(), kGoldenGiantDag);
}

}  // namespace perfbench
