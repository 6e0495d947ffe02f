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

namespace tgs::bench {
namespace {

void run_table1(const ExpContext& ctx) {
  const auto suite = peer_set_graphs();
  const Slate slate(*ctx.cli, {AlgoClass::kUNC, AlgoClass::kBNP});

  Sweep sweep;
  std::vector<std::string> graph_names;
  for (const auto& entry : suite) graph_names.push_back(entry.graph.name());
  const std::vector<double> indices =
      range(0, static_cast<double>(suite.size()) - 1);
  sweep.axis("graph", indices, graph_names);

  const auto job = [&](const JobContext&, const SweepPoint& pt) {
    const auto& entry = suite[static_cast<std::size_t>(pt.param("graph"))];
    SchedWorkspace& ws = bind_workspace(entry.graph);
    std::vector<Record> records;
    for (const SlateEntry& e : slate.entries()) {
      const RunResult rr = slate.run(e, entry.graph, ws);
      Record rec = record_from_run(rr, "table1", pt.param("graph"),
                                   static_cast<double>(rr.length));
      rec.str.emplace_back("graph", pt.label("graph"));
      rec.str.emplace_back("class", algo_class_name(e.cls));
      records.push_back(std::move(rec));
    }
    return records;
  };
  run_experiment(ctx, "table1", sweep, job, [&](const Report& r) {
    // Transposed render: one row per algorithm, one column per graph.
    std::map<std::pair<double, std::string>, double> cells;
    for (const JobResult& jr : r.sink.results())
      for (const Record& rec : jr.records)
        cells[{rec.row, rec.column}] = rec.value;

    if (!ctx.quiet) {
      std::printf("peer-set graphs:\n");
      for (const auto& e : suite)
        std::printf("  %-22s %s\n", e.graph.name().c_str(),
                    e.description.c_str());
      std::printf("\n");
    }
    std::vector<std::string> headers{"algorithm", "class"};
    for (const std::string& g : graph_names) headers.push_back(g);
    Table table(headers);
    for (const SlateEntry& e : slate.entries()) {
      std::vector<std::string> row{e.column, algo_class_name(e.cls)};
      for (const double idx : indices) {
        const auto it = cells.find({idx, e.column});
        row.push_back(it == cells.end()
                          ? "-"
                          : Table::fmt_int(static_cast<long long>(it->second)));
      }
      table.add_row(std::move(row));
    }
    emit(ctx, "table1_psg", "Table 1: schedule lengths on the peer-set graphs",
         table);
  });
}

}  // namespace

void register_psg_experiments(ExperimentRegistry& r) {
  r.add({"table1", "psg",
         "UNC/BNP schedule lengths on the peer-set graphs", run_table1});
}

}  // namespace tgs::bench
