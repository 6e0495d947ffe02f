// Giant-graph tier: scheduling 100k-node DAGs with memory as a
// first-class metric.
//
//  giant_sweep -- per-algorithm scaling curves over v in {1k, 10k, 50k,
//            100k} (default) on a traced or scale-mode random workload.
//            Every run reports, next to wall-clock seconds: the process
//            peak RSS (the tier's fit-the-ceiling gate), the current RSS,
//            and the allocation count/bytes attributed to the scheduling
//            call (util/mem.h counters; a zero-allocation steady state
//            stays visibly zero). tools/bench_summary.py --scaling fits
//            log-log slopes per algorithm from the JSONL stream.
//
// Measurement notes:
//  * Allocation deltas are process-global counters, so run with
//    --threads=1 (the default) when the alloc_* fields matter; concurrent
//    jobs bleed into each other's deltas (seconds and schedule lengths
//    stay exact at any thread count).
//  * peak RSS is monotonic for the process lifetime: it answers "did this
//    tier fit", not "what did this algorithm add" -- that is what the
//    alloc_* deltas are for.
//  * All measurement fields route through ExpContext::time_value(), so
//    --no-timing keeps the JSONL stream byte-reproducible.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "experiments/experiments.h"
#include "tgs/gen/traced.h"
#include "tgs/util/mem.h"
#include "tgs/util/rng.h"

namespace tgs::bench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Build the requested workload at roughly `v_target` nodes. Traced
/// kernels are deterministic (seed-free); rgnos uses the giant-tier
/// max_fanout scale path with the job-derived seed.
TaskGraph giant_workload(const std::string& kind, NodeId v_target,
                         std::uint64_t seed) {
  if (kind == "cholesky") {
    // v = dim(dim+1)/2 -> dim = floor((sqrt(8v+1)-1)/2).
    const int dim = static_cast<int>(
        (std::sqrt(8.0 * static_cast<double>(v_target) + 1.0) - 1.0) / 2.0);
    return cholesky_graph(std::max(1, dim), 1.0);
  }
  if (kind == "gauss") {
    // v = (n-1) + n(n-1)/2 ~ n^2/2 -> n ~ sqrt(2v).
    const int n = static_cast<int>(std::sqrt(2.0 * v_target));
    return gaussian_elimination_graph(std::max(2, n), 1.0);
  }
  if (kind == "fft") {
    // v = (n/2) log2(n); round n down to the nearest power of two with
    // v(n) <= v_target.
    int n = 4;
    while (true) {
      const int next = n * 2;
      const double ranks = std::log2(static_cast<double>(next));
      if (static_cast<double>(next) / 2.0 * ranks >
          static_cast<double>(v_target))
        break;
      n = next;
    }
    return fft_graph(n, 1.0);
  }
  if (kind == "rgnos") {
    RgnosParams params;
    params.num_nodes = v_target;
    params.ccr = 1.0;
    params.parallelism = 3;
    params.max_fanout = 8;  // O(v) edges: the giant-tier scale path
    params.seed = seed;
    return rgnos_graph(params);
  }
  throw std::invalid_argument("giant_sweep: unknown --workload '" + kind +
                              "' (cholesky|gauss|fft|rgnos)");
}

void run_giant_sweep(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const std::string workload = cli.get("workload", "cholesky");
  const int procs = static_cast<int>(
      cli.get_int_in("procs", 64, 1, 1 << 20));
  const int time_reps = std::max(
      1, static_cast<int>(cli.get_int_in("reps", 1, 1, 1000)));

  // Default algorithm slate: the paper's BNP span (fast MCP/HLFET/ISH,
  // pair-based ETF/DLS) plus one novel param: point.
  std::vector<std::string> algos{"MCP",  "HLFET", "ISH",
                                 "ETF",  "DLS",   "param:cp/static/insert"};
  if (cli.has("algos"))
    algos = cli.get_list("algos");
  const Slate slate(algos, &cli);

  // Size axis: --sizes csv of target node counts. The row key is the
  // TARGET (so curves from different workloads align); the realized v and
  // e land in the JSONL fields.
  std::vector<double> sizes;
  if (cli.has("sizes")) {
    for (const std::string& s : cli.get_list("sizes"))
      sizes.push_back(static_cast<double>(std::stoll(s)));
  } else {
    sizes = {1000, 10000, 50000, 100000};
  }
  Sweep sweep;
  sweep.axis("v", sizes).axis(
      "algo", range(0, static_cast<double>(slate.entries().size()) - 1),
      slate.columns());

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const NodeId v_target = static_cast<NodeId>(pt.param("v"));
    const SlateEntry& e =
        slate.entries()[static_cast<std::size_t>(pt.param("algo"))];
    // Same graph for every algorithm at a size: seed depends on v only.
    const TaskGraph g =
        giant_workload(workload, v_target, derive_seed(jc.master_seed, v_target));
    SchedWorkspace& ws = bind_workspace(g);
    // Pre-warm shared attributes so no algorithm's run is charged for
    // filling the cache the others reuse (same protocol as table6).
    ws.attrs().static_levels();
    ws.attrs().alap_times();

    SchedOptions opt;
    opt.num_procs = procs;

    AllocMeter meter;
    RunResult best = slate.run(e, g, ws, opt);
    const double alloc_count = static_cast<double>(meter.count());
    const double alloc_mb = static_cast<double>(meter.bytes()) / kMiB;
    for (int i = 1; i < time_reps; ++i)
      best.seconds = std::min(best.seconds, slate.run(e, g, ws, opt).seconds);

    Record rec = record_from_run(best, "giant", v_target,
                                 ctx.time_value(best.seconds));
    rec.num.emplace_back("v_actual", static_cast<double>(g.num_nodes()));
    rec.num.emplace_back("e_actual", static_cast<double>(g.num_edges()));
    rec.num.emplace_back("seconds", ctx.time_value(best.seconds));
    // First-run deltas: steady-state allocation attributed to this
    // algorithm's scheduling call (reruns on a warm workspace would show
    // the recycled-capacity zero instead).
    rec.num.emplace_back("alloc_count", ctx.time_value(alloc_count));
    rec.num.emplace_back("alloc_mb", ctx.time_value(alloc_mb));
    rec.num.emplace_back(
        "rss_mb", ctx.time_value(static_cast<double>(current_rss_bytes()) / kMiB));
    rec.num.emplace_back(
        "peak_rss_mb",
        ctx.time_value(static_cast<double>(peak_rss_bytes()) / kMiB));
    rec.str.emplace_back("workload", g.name());
    std::vector<Record> records;
    records.push_back(std::move(rec));
    return records;
  };
  run_experiment(ctx, "giant_sweep", sweep, job, [&](const Report& r) {
    if (!ctx.quiet)
      std::printf("Giant-graph tier: workload=%s, procs=%d, min of %d timing "
                  "rep(s), %d worker threads (use --threads=1 for clean "
                  "alloc_* deltas)\n\n",
                  workload.c_str(), procs, time_reps, ctx.threads);
    r.pivot("giant", "v", slate.columns(), 3, "giant_sweep",
            "Giant-graph tier: scheduling seconds per algorithm (mem in "
            "JSONL)");
  });
}

}  // namespace

void register_giant_experiments(ExperimentRegistry& r) {
  r.add({"giant_sweep", "giant",
         "100k-node scaling curves with time + peak-RSS + alloc metrics "
         "[--workload, --sizes, --procs, --algos, --reps]",
         run_giant_sweep});
}

}  // namespace tgs::bench
