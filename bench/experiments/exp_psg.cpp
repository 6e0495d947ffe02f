// Table 1 (paper §6.1): schedule lengths generated by the UNC and BNP
// algorithms on the peer-set graphs.
//
// Paper observations to check against the output:
//  * lengths vary considerably across algorithms despite the small graphs;
//  * DCP is the strongest UNC algorithm;
//  * the greedy BNP algorithms (HLFET, ISH, ETF, MCP, DLS) are similar;
//  * CP-based algorithms beat non-CP-based ones.
//
// One job per peer-set graph (the graphs are fixed, so there is no
// randomness to derive); the rendered table is transposed to the paper's
// shape (rows = algorithms, columns = graphs).
#include <cstdio>
#include <map>

#include "experiments/experiments.h"
#include "tgs/gen/psg.h"
#include "tgs/harness/registry.h"
#include "tgs/harness/runner.h"

namespace tgs::bench {
namespace {

void run_table1(const ExpContext& ctx) {
  const Cli& cli = *ctx.cli;
  const auto suite = peer_set_graphs();
  check_algo_filter(cli, {unc_names(), bnp_names()});
  const std::vector<std::string> names =
      filtered_names(cli, [] {
        auto n = unc_names();
        for (const std::string& b : bnp_names()) n.push_back(b);
        return n;
      }());

  Sweep sweep;
  std::vector<double> indices;
  std::vector<std::string> graph_names;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    indices.push_back(static_cast<double>(i));
    graph_names.push_back(suite[i].graph.name());
  }
  sweep.axis("graph", indices, graph_names);

  OutStream out = make_out(ctx, "table1");
  ResultSink sink("table1", out.get());

  const auto job = [&](const JobContext&, const SweepPoint& pt) {
    const auto& entry = suite[static_cast<std::size_t>(pt.param("graph"))];
    SchedWorkspace& ws = bind_workspace(entry.graph);
    std::vector<Record> records;
    for (const std::string& name : names) {
      const auto algo = make_scheduler(name);
      const RunResult rr = run_scheduler(*algo, entry.graph, {}, ws);
      Record rec = record_from_run(rr, "table1", pt.param("graph"),
                                   static_cast<double>(rr.length));
      rec.str.emplace_back("graph", pt.label("graph"));
      rec.str.emplace_back("class", algo_class_name(algo->algo_class()));
      records.push_back(std::move(rec));
    }
    return records;
  };
  run_sweep(sweep, ctx.seed, ctx.threads, job, sink);

  // Transposed render: one row per algorithm, one column per graph.
  std::map<std::pair<double, std::string>, const Record*> cells;
  std::map<std::string, std::string> classes;
  std::size_t invalid = 0;
  for (const JobResult& jr : sink.results())
    for (const Record& rec : jr.records) {
      cells[{rec.row, rec.column}] = &rec;
      for (const auto& [k, v] : rec.str)
        if (k == "class") classes[rec.column] = v;
      if (num_field(rec, "valid", 0.0) == 0.0) ++invalid;
    }

  if (!ctx.quiet) {
    std::printf("peer-set graphs:\n");
    for (const auto& e : suite)
      std::printf("  %-22s %s\n", e.graph.name().c_str(),
                  e.description.c_str());
    std::printf("\n");
  }
  if (invalid > 0)
    std::fprintf(stderr, "warning: %zu invalid schedule(s) in table1\n",
                 invalid);

  std::vector<std::string> headers{"algorithm", "class"};
  for (const std::string& g : graph_names) headers.push_back(g);
  Table table(headers);
  for (const std::string& name : names) {
    std::vector<std::string> row{name, classes[name]};
    for (const double idx : indices) {
      const auto it = cells.find({idx, name});
      row.push_back(it == cells.end()
                        ? "-"
                        : Table::fmt_int(static_cast<long long>(
                              it->second->value)));
    }
    table.add_row(std::move(row));
  }
  emit(ctx, "table1_psg", "Table 1: schedule lengths on the peer-set graphs",
       table);
  report_sink(ctx, sink, out);
}

}  // namespace

void register_psg_experiments(ExperimentRegistry& r) {
  r.add({"table1", "psg",
         "UNC/BNP schedule lengths on the peer-set graphs", run_table1});
}

}  // namespace tgs::bench
