// Ablation experiments (paper §6.4.1/§7 observations, plus checks of this
// implementation's own design choices):
//
//  ablate_bb        -- how much of the branch-and-bound search does the
//                      pruning machinery (bounds + incumbent seeding +
//                      duplicate/symmetry elimination) save? Full search
//                      vs bounds-disabled enumeration on small RGBOS
//                      instances. Both searches use deterministic
//                      node-expansion budgets and the round-synchronous
//                      parallel B&B (--bb-threads), so states-expanded
//                      counts are bit-reproducible at any thread count.
//  ablate_ccr       -- "degradations/NSL in general increase with CCRs":
//                      NSL of all 15 algorithms over CCR at fixed v.
//  ablate_insertion -- "insertion is better than non-insertion": HLFET vs
//                      ISH (identical priorities, only hole-filling
//                      differs) and ETF vs MCP as a cross-check.
//  ablate_priority  -- static vs dynamic priorities and CP-based vs
//                      non-CP-based groups, NSL and scheduling time.
//  ablate_topology  -- "all algorithms perform better on networks with
//                      more communication links": APN NSL on ring8 <
//                      mesh2x4 < hcube3 < clique8.
//
// Seed pairing: ablate_ccr and ablate_topology key each graph's stream by
// the replication index ONLY (derive_seed(master, i)), so every CCR row /
// machine sees the same underlying graph suite -- the property the paired
// comparison rests on. The other ablations use the per-job stream.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "experiments/experiments.h"
#include "tgs/gen/rgbos.h"
#include "tgs/util/rng.h"

namespace tgs::bench {
namespace {

// ----------------------------------------------------------- ablate_bb ----

void run_ablate_bb(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const NodeId max_nodes = static_cast<NodeId>(cli.get_int("max-nodes", 14));
  const std::uint64_t naive_budget =
      static_cast<std::uint64_t>(cli.get_int("naive-nodes", 4'000'000));
  BBOptions full = bb_options(ctx);  // round-synchronous: counts stay exact
  full.num_procs = 2;
  const Slate seeds(bnp_names());

  Sweep sweep;
  sweep.axis("v", range(10, max_nodes, 2)).axis("ccr", {0.1, 10.0});

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const NodeId v = static_cast<NodeId>(pt.param("v"));
    const double ccr = pt.param("ccr");
    const TaskGraph g = rgbos_graph(ccr, v, jc.master_seed);
    SchedWorkspace& ws = bind_workspace(g);

    BBOptions with_bounds = full;
    with_bounds.initial_upper_bound = kTimeInf;
    for (const RunResult& rr : seeds.run_all(g, ws, {full.num_procs}))
      with_bounds.initial_upper_bound =
          std::min(with_bounds.initial_upper_bound, rr.length);
    const BBResult with = branch_and_bound(g, with_bounds);

    BBOptions naive = full;
    naive.disable_bounds = true;
    naive.max_nodes = naive_budget;
    const BBResult without = branch_and_bound(g, naive);

    if (with.proven_optimal && without.proven_optimal &&
        with.length != without.length)
      throw std::runtime_error("pruned and exhaustive optima disagree at v=" +
                               std::to_string(v));
    // When the budget runs dry before any complete schedule, the search
    // reports the seeded upper bound as its length (never 0), so the
    // "optimal" column is always the best value actually proven reachable.
    const std::string pivot = ccr_pivot(ccr);
    return std::vector<Record>{
        cell(pivot, v, "optimal", static_cast<double>(with.length)),
        cell(pivot, v, "states(full)",
             static_cast<double>(with.nodes_expanded)),
        cell(pivot, v, "time(full)", ctx.time_value(with.seconds)),
        cell(pivot, v, "states(naive)",
             static_cast<double>(without.nodes_expanded)),
        cell(pivot, v, "time(naive)", ctx.time_value(without.seconds)),
        cell(pivot, v, "speedup",
             static_cast<double>(without.nodes_expanded) /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, with.nodes_expanded))),
        cell(pivot, v, "proven(both)",
             with.proven_optimal && without.proven_optimal ? 1.0 : 0.0)};
  };
  run_experiment(ctx, "ablate_bb", sweep, job, [&](const Report& r) {
    if (!ctx.quiet)
      std::printf("Branch-and-bound pruning ablation: seed=%llu, p=2, "
                  "budgets %llu/%llu states\n\n",
                  static_cast<unsigned long long>(ctx.seed),
                  static_cast<unsigned long long>(full.max_nodes),
                  static_cast<unsigned long long>(naive_budget));
    for (const double ccr : {0.1, 10.0})
      r.pivot(ccr_pivot(ccr), "v",
              {"optimal", "states(full)", "time(full)", "states(naive)",
               "time(naive)", "speedup", "proven(both)"},
              1, "ablate_bb_" + ccr_pivot(ccr),
              "Ablation: B&B states, pruning on vs exhaustive, CCR=" +
                  Table::fmt(ccr, 1));
  });
}

// ---------------------------------------------------------- ablate_ccr ----

void run_ablate_ccr(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const int graphs = static_cast<int>(cli.get_int("graphs", 4));
  const NodeId nodes = static_cast<NodeId>(cli.get_int("nodes", 200));
  const Slate slate(cli, {AlgoClass::kUNC, AlgoClass::kBNP, AlgoClass::kAPN},
                    [](const std::string& n) { return n + "(APN)"; });

  Sweep sweep;
  sweep.axis("ccr", {0.1, 0.5, 1.0, 2.0, 10.0}).axis("i", range(0, graphs - 1));

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const double ccr = pt.param("ccr");
    const int i = static_cast<int>(pt.param("i"));
    // Keyed by i only: CCR rows stay paired on the same base structure.
    const TaskGraph g = rgnos_sample(
        nodes, ccr, 1 + i % 5,
        derive_seed(jc.master_seed, static_cast<std::uint64_t>(i)));
    std::vector<Record> records;
    for (const RunResult& rr : slate.run_all(g, bind_workspace(g)))
      records.push_back(record_from_run(rr, "ablate_ccr", ccr, rr.nsl));
    return records;
  };
  run_experiment(ctx, "ablate_ccr", sweep, job, [&](const Report& r) {
    if (!ctx.quiet)
      std::printf("CCR sensitivity: %d RGNOS graphs (v=%u) per CCR, "
                  "seed=%llu\nExpect every column to increase down the "
                  "table.\n\n",
                  graphs, nodes, static_cast<unsigned long long>(ctx.seed));
    r.pivot("ablate_ccr", "CCR", slate.columns(), 3, "ablate_ccr",
            "Ablation: average NSL vs CCR (all 15 algorithms)");
  });
}

// ---------------------------------------------------- ablate_insertion ----

void run_ablate_insertion(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const int graphs = static_cast<int>(cli.get_int("graphs", 8));
  const NodeId nodes = static_cast<NodeId>(cli.get_int("nodes", 150));
  const Slate slate({"HLFET", "ISH", "ETF", "MCP"});

  Sweep sweep;
  sweep.axis("ccr", {0.1, 0.5, 1.0, 2.0, 10.0}).axis("i", range(0, graphs - 1));

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const double ccr = pt.param("ccr");
    const int i = static_cast<int>(pt.param("i"));
    const TaskGraph g = rgnos_sample(nodes, ccr, 1 + i % 5, jc.seed);
    const std::vector<RunResult> runs = slate.run_all(g, bind_workspace(g));
    const double lh = static_cast<double>(runs[0].length);
    const double li = static_cast<double>(runs[1].length);
    const double le = static_cast<double>(runs[2].length);
    const double lm = static_cast<double>(runs[3].length);
    // Per-graph 0/100 indicators; the pivot mean is the percentage.
    return std::vector<Record>{
        cell("ablate_insertion", ccr, "HLFET/ISH", lh / li),
        cell("ablate_insertion", ccr, "ETF/MCP", le / lm),
        cell("ablate_insertion", ccr, "ISH wins %", li < lh ? 100.0 : 0.0),
        cell("ablate_insertion", ccr, "ties %", li == lh ? 100.0 : 0.0)};
  };
  run_experiment(ctx, "ablate_insertion", sweep, job, [&](const Report& r) {
    if (!ctx.quiet)
      std::printf("Insertion ablation: %d RGNOS graphs (v=%u) per CCR, "
                  "seed=%llu\nRatios > 1.0 mean the insertion-based "
                  "algorithm wins.\n\n",
                  graphs, nodes, static_cast<unsigned long long>(ctx.seed));
    r.pivot("ablate_insertion", "CCR",
            {"HLFET/ISH", "ETF/MCP", "ISH wins %", "ties %"}, 3,
            "ablate_insertion", "Ablation: insertion vs non-insertion");
  });
}

// ----------------------------------------------------- ablate_priority ----

void run_ablate_priority(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const int graphs = static_cast<int>(cli.get_int("graphs", 6));
  const NodeId nodes = static_cast<NodeId>(cli.get_int("nodes", 150));
  // Each algorithm and the group column it folds into.
  const std::vector<std::pair<std::string, std::string>> members{
      {"HLFET", "static(HLFET,ISH)"}, {"ISH", "static(HLFET,ISH)"},
      {"ETF", "dynamic(ETF,DLS)"},    {"DLS", "dynamic(ETF,DLS)"},
      {"MCP", "MCP"},                 {"DCP", "CP-based(UNC)"},
      {"DSC", "CP-based(UNC)"},       {"MD", "CP-based(UNC)"},
      {"EZ", "non-CP(UNC)"},          {"LC", "non-CP(UNC)"}};
  const std::vector<std::string> columns{"static(HLFET,ISH)",
                                         "dynamic(ETF,DLS)", "MCP",
                                         "CP-based(UNC)", "non-CP(UNC)"};
  std::vector<std::string> names;
  for (const auto& m : members) names.push_back(m.first);
  const Slate slate(names);

  Sweep sweep;
  sweep.axis("ccr", {0.1, 1.0, 10.0}).axis("i", range(0, graphs - 1));

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const double ccr = pt.param("ccr");
    const int i = static_cast<int>(pt.param("i"));
    const TaskGraph g = rgnos_sample(nodes, ccr, 1 + i % 5, jc.seed);
    const std::vector<RunResult> runs = slate.run_all(g, bind_workspace(g));
    std::vector<Record> records;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const std::string& group = members[k].second;
      records.push_back(cell("priority_nsl", ccr, group, runs[k].nsl));
      records.push_back(cell("priority_time", ccr, group,
                             ctx.time_value(runs[k].seconds * 1e3)));
    }
    return records;
  };
  run_experiment(ctx, "ablate_priority", sweep, job, [&](const Report& r) {
    if (!ctx.quiet)
      std::printf("Priority ablation: %d RGNOS graphs (v=%u) per CCR, "
                  "seed=%llu\n\n",
                  graphs, nodes, static_cast<unsigned long long>(ctx.seed));
    r.pivot("priority_nsl", "CCR", columns, 3, "ablate_priority_nsl",
            "Ablation: priority scheme, average NSL per group");
    r.pivot("priority_time", "CCR", columns, 2, "ablate_priority_time",
            "Ablation: priority scheme, average scheduling time (ms)");
  });
}

// ----------------------------------------------------- ablate_topology ----

void run_ablate_topology(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const int graphs = static_cast<int>(cli.get_int("graphs", 4));
  const NodeId nodes = static_cast<NodeId>(cli.get_int("nodes", 120));
  const Slate slate(cli, {AlgoClass::kAPN});
  const auto make_machine = [](const std::string& label) {
    if (label == "ring8") return RoutingTable{Topology::ring(8)};
    if (label == "mesh2x4") return RoutingTable{Topology::mesh(2, 4)};
    if (label == "hcube3") return RoutingTable{Topology::hypercube(3)};
    return RoutingTable{Topology::fully_connected(8)};
  };

  Sweep sweep;
  // Keyed by link count (the pivot rows), labelled by machine name.
  sweep.axis("machine", {8, 10, 12, 28},
             {"ring8", "mesh2x4", "hcube3", "clique8"})
      .axis("i", range(0, graphs - 1));

  const auto job = [&](const JobContext& jc, const SweepPoint& pt) {
    const int i = static_cast<int>(pt.param("i"));
    const RoutingTable routes = make_machine(pt.label("machine"));
    // Keyed by i only: every machine must see the same graph suite.
    const TaskGraph g = rgnos_sample(
        nodes, i % 2 == 0 ? 1.0 : 2.0, 2 + i % 3,
        derive_seed(jc.master_seed, static_cast<std::uint64_t>(i)));
    SchedWorkspace& ws = bind_workspace(g);
    std::vector<Record> records;
    for (const SlateEntry& e : slate.entries()) {
      const RunResult rr = slate.run(e, g, ws, routes);
      records.push_back(record_from_run(rr, "ablate_topology",
                                        pt.param("machine"), rr.nsl));
      records.back().str.emplace_back("machine", pt.label("machine"));
    }
    return records;
  };
  run_experiment(ctx, "ablate_topology", sweep, job, [&](const Report& r) {
    if (!ctx.quiet)
      std::printf("Topology ablation: %d RGNOS graphs (v=%u) per machine, "
                  "seed=%llu.\nRows are keyed by link count: 8=ring, "
                  "10=mesh2x4, 12=hcube3, 28=clique8.\nExpect NSL to fall "
                  "as links grow.\n\n",
                  graphs, nodes, static_cast<unsigned long long>(ctx.seed));
    r.pivot("ablate_topology", "links", slate.columns(), 3, "ablate_topology",
            "Ablation: APN NSL vs network connectivity");
  });
}

}  // namespace

void register_ablation_experiments(ExperimentRegistry& r) {
  r.add({"ablate_bb", "ablations",
         "B&B pruning machinery: states expanded, full vs exhaustive "
         "[--max-nodes, --bb-nodes, --naive-nodes, --bb-threads]",
         run_ablate_bb});
  r.add({"ablate_ccr", "ablations",
         "NSL of all 15 algorithms vs CCR, paired graph suite "
         "[--graphs, --nodes]",
         run_ablate_ccr});
  r.add({"ablate_insertion", "ablations",
         "insertion vs non-insertion: HLFET/ISH and ETF/MCP ratios "
         "[--graphs, --nodes]",
         run_ablate_insertion});
  r.add({"ablate_priority", "ablations",
         "static vs dynamic priority and CP vs non-CP groups "
         "[--graphs, --nodes]",
         run_ablate_priority});
  r.add({"ablate_topology", "ablations",
         "APN NSL vs network connectivity, paired graph suite "
         "[--graphs, --nodes]",
         run_ablate_topology});
}

}  // namespace tgs::bench
