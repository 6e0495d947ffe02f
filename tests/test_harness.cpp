// Tests for the registry, timed runner and pivot-table recorder.
#include <gtest/gtest.h>

#include "tgs/gen/psg.h"
#include "tgs/harness/experiment.h"
#include "tgs/harness/registry.h"
#include "tgs/harness/runner.h"
#include "tgs/net/routing.h"
#include "tgs/param/param_scheduler.h"

namespace tgs {
namespace {

TEST(Registry, FifteenAlgorithmsInPaperOrder) {
  EXPECT_EQ(bnp_names(),
            (std::vector<std::string>{"HLFET", "ISH", "MCP", "ETF", "DLS",
                                      "LAST"}));
  EXPECT_EQ(unc_names(),
            (std::vector<std::string>{"EZ", "LC", "DSC", "MD", "DCP"}));
  EXPECT_EQ(apn_names(), (std::vector<std::string>{"MH", "DLS", "BU", "BSA"}));
  EXPECT_EQ(bnp_names().size() + unc_names().size() + apn_names().size(), 15u);
}

TEST(Registry, ClassesAreConsistent) {
  for (const auto& s : make_bnp_schedulers())
    EXPECT_EQ(s->algo_class(), AlgoClass::kBNP);
  for (const std::string& name : unc_names())
    EXPECT_EQ(make_scheduler(name)->algo_class(), AlgoClass::kUNC);
}

TEST(Registry, LookupByName) {
  EXPECT_EQ(make_scheduler("MCP")->name(), "MCP");
  EXPECT_EQ(make_scheduler("DCP")->name(), "DCP");
  EXPECT_EQ(make_apn_scheduler("BSA")->name(), "BSA");
  EXPECT_EQ(make_apn_scheduler("DLS-APN")->name(), "DLS");
  EXPECT_THROW(make_scheduler("NOPE"), std::invalid_argument);
  EXPECT_THROW(make_apn_scheduler("NOPE"), std::invalid_argument);
}

// The registry, row by row: every listed name, its class, and for the
// seven parameter points the spec docs/parameterized.md gives.
TEST(Registry, EveryListedNameResolvesToItsRow) {
  struct Row {
    const char* name;
    AlgoClass cls;
    const char* spec;  // nullptr: a standalone implementation
  };
  const Row kRows[] = {
      {"HLFET", AlgoClass::kBNP, "param:sl/static/append/none"},
      {"ISH", AlgoClass::kBNP, "param:sl/static/hole/none"},
      {"MCP", AlgoClass::kBNP, "param:alaplist/static/insert/none"},
      {"ETF", AlgoClass::kBNP, "param:sl/etf/append/none"},
      {"DLS", AlgoClass::kBNP, "param:sl/dls/append/none"},
      {"LAST", AlgoClass::kBNP, nullptr},
      {"EZ", AlgoClass::kUNC, "param:bl/static/append/ez"},
      {"LC", AlgoClass::kUNC, "param:bl/static/append/lc"},
      {"DSC", AlgoClass::kUNC, nullptr},
      {"MD", AlgoClass::kUNC, nullptr},
      {"DCP", AlgoClass::kUNC, nullptr},
      {"MH", AlgoClass::kAPN, nullptr},
      {"DLS", AlgoClass::kAPN, nullptr},
      {"BU", AlgoClass::kAPN, nullptr},
      {"BSA", AlgoClass::kAPN, nullptr},
  };
  std::vector<std::string> listed[3];  // by AlgoClass
  for (const Row& row : kRows) {
    SCOPED_TRACE(row.name);
    listed[static_cast<int>(row.cls)].push_back(row.name);
    if (row.cls == AlgoClass::kAPN) {
      EXPECT_EQ(make_apn_scheduler(row.name)->name(), row.name);
      continue;
    }
    const SchedulerPtr s = make_scheduler(row.name);
    EXPECT_EQ(s->name(), row.name);
    EXPECT_EQ(s->algo_class(), row.cls);
    const auto* p = dynamic_cast<const ParamScheduler*>(s.get());
    if (row.spec == nullptr) {
      EXPECT_EQ(p, nullptr);
    } else {
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(p->spec(), ParamSpec::parse(row.spec));
    }
  }
  EXPECT_EQ(bnp_names(), listed[static_cast<int>(AlgoClass::kBNP)]);
  EXPECT_EQ(unc_names(), listed[static_cast<int>(AlgoClass::kUNC)]);
  EXPECT_EQ(apn_names(), listed[static_cast<int>(AlgoClass::kAPN)]);

  // Either lookup's unknown-name message names every algorithm, the
  // DLS-APN alias and the param: grammar.
  for (const bool apn : {false, true}) {
    try {
      if (apn)
        make_apn_scheduler("NOPE");
      else
        make_scheduler("NOPE");
      ADD_FAILURE() << "NOPE resolved";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      for (const Row& row : kRows)
        EXPECT_NE(msg.find(row.name), std::string::npos) << row.name << msg;
      EXPECT_NE(msg.find("DLS-APN"), std::string::npos) << msg;
      EXPECT_NE(msg.find("param:<metric>/<ready>/<insertion>[/<cluster>]"),
                std::string::npos)
          << msg;
    }
  }
}

TEST(Registry, CombinedListOrder) {
  const auto all = make_unc_and_bnp_schedulers();
  ASSERT_EQ(all.size(), 11u);
  EXPECT_EQ(all.front()->name(), "EZ");
  EXPECT_EQ(all.back()->name(), "LAST");
}

TEST(Runner, ValidatedTimedRun) {
  const TaskGraph g = psg_canonical9();
  const auto mcp = make_scheduler("MCP");
  const RunResult r = run_scheduler(*mcp, g, {});
  EXPECT_TRUE(r.valid) << r.error;
  EXPECT_EQ(r.algo, "MCP");
  EXPECT_GT(r.length, 0);
  EXPECT_GT(r.procs_used, 0);
  EXPECT_GE(r.seconds, 0.0);
  EXPECT_GE(r.nsl, 1.0);
}

TEST(Runner, ApnRun) {
  const TaskGraph g = psg_canonical9();
  const Topology topo = Topology::hypercube(3);
  const RoutingTable routes(topo);
  const auto bsa = make_apn_scheduler("BSA");
  const RunResult r = run_apn_scheduler(*bsa, g, routes);
  EXPECT_TRUE(r.valid) << r.error;
  EXPECT_GT(r.length, 0);
}

TEST(PivotStats, RendersMeansByRowAndColumn) {
  PivotStats stats("nodes", {"A", "B"});
  stats.add(50, "A", 1.0);
  stats.add(50, "A", 3.0);
  stats.add(50, "B", 5.0);
  stats.add(100, "A", 4.0);
  const Table t = stats.render(1);
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("2.0"), std::string::npos);  // mean of 1, 3
  EXPECT_NE(ascii.find("5.0"), std::string::npos);
  EXPECT_NE(ascii.find("-"), std::string::npos);  // missing (100, B)
}

TEST(PivotStats, CellAccess) {
  PivotStats stats("x", {"A"});
  stats.add(1, "A", 2.0);
  ASSERT_NE(stats.cell(1, "A"), nullptr);
  EXPECT_EQ(stats.cell(1, "A")->count(), 1u);
  EXPECT_EQ(stats.cell(2, "A"), nullptr);
  EXPECT_EQ(stats.cell(1, "B"), nullptr);
}

}  // namespace
}  // namespace tgs
