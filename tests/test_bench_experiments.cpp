// Tests for the tgs_bench experiment layer (bench/experiments/): every
// registered experiment must produce byte-identical JSONL at --threads=1
// and --threads=8 for a fixed seed, the registry must cover the paper's
// full experiment set, and an explicit --out file shared by several
// experiments of one invocation must append, not truncate.
//
// The experiments run in-process through run_cli() -- the exact code path
// of the tgs_bench binary -- at reduced grids (and --no-timing for the
// experiments that measure wall clock, which is the documented way to
// make their streams reproducible).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/experiments.h"
#include "tgs/util/cli.h"

namespace tgs::bench {
namespace {

namespace fs = std::filesystem;

fs::path temp_jsonl(const std::string& tag) {
  return fs::temp_directory_path() /
         ("tgs_bench_test_" + tag + "_" +
          std::to_string(static_cast<unsigned long>(::getpid())) + ".jsonl");
}

int run_bench(std::vector<std::string> args) {
  args.insert(args.begin(), "tgs_bench");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  const Cli cli(static_cast<int>(argv.size()), argv.data());
  return run_cli(cli);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// One reduced-grid configuration per experiment; grids are small enough
/// for the full determinism matrix to stay test-suite friendly.
struct ExpConfig {
  std::string name;
  std::vector<std::string> flags;
};

const std::vector<ExpConfig>& reduced_configs() {
  static const std::vector<ExpConfig> configs{
      {"table1", {}},
      {"table2", {"--max-v=12", "--bb-nodes=500"}},
      {"table3", {"--max-v=12", "--bb-nodes=500"}},
      {"table4", {"--max-v=100"}},
      {"table5", {"--max-v=100"}},
      {"table6", {"--max-nodes=50", "--no-timing"}},
      {"fig2", {"--max-nodes=50"}},
      {"fig3", {"--max-nodes=50"}},
      {"fig4", {"--max-dim=8"}},
      {"micro", {"--reps=1", "--no-timing", "--algo=MCP,DCP"}},
      {"ablate_bb",
       {"--max-nodes=10", "--bb-nodes=1000", "--naive-nodes=10000",
        "--no-timing"}},
      {"ablate_ccr", {"--graphs=2", "--nodes=60"}},
      {"ablate_insertion", {"--graphs=2", "--nodes=60"}},
      {"ablate_priority", {"--graphs=2", "--nodes=60", "--no-timing"}},
      {"ablate_topology", {"--graphs=2", "--nodes=40"}},
      {"ext_unc_cs", {"--max-v=50", "--graphs=2"}},
      {"param_sweep",
       {"--ccr=1.0", "--max-v=12", "--bb-nodes=500", "--metric=sl,alap",
        "--ready=static,etf", "--insertion=append,insert"}},
      // Every measurement field (seconds, rss, alloc deltas) routes
      // through time_value(), so --no-timing makes the stream
      // byte-reproducible at any thread count.
      {"giant_sweep",
       {"--sizes=300,900", "--no-timing", "--algos=MCP,ETF"}},
  };
  return configs;
}

std::string run_reduced(const ExpConfig& cfg, int threads,
                        std::uint64_t seed) {
  const fs::path path =
      temp_jsonl(cfg.name + "_t" + std::to_string(threads));
  std::vector<std::string> args{"--experiment=" + cfg.name,
                                "--seed=" + std::to_string(seed),
                                "--threads=" + std::to_string(threads),
                                "--out=" + path.string(),
                                "--quiet", "--no-csv"};
  for (const std::string& f : cfg.flags) args.push_back(f);
  EXPECT_EQ(run_bench(args), 0) << cfg.name;
  const std::string bytes = read_file(path);
  std::error_code ec;
  fs::remove(path, ec);
  return bytes;
}

TEST(Registry, CoversThePaperExperimentSet) {
  const auto& defs = experiments().all();
  EXPECT_GE(defs.size(), 14u);
  for (const char* name :
       {"table1", "table2", "table3", "table4", "table5", "table6", "fig2",
        "fig3", "fig4", "micro", "ablate_bb", "ablate_ccr",
        "ablate_insertion", "ablate_priority", "ablate_topology",
        "ext_unc_cs", "param_sweep"}) {
    const ExperimentDef* def = experiments().find(name);
    ASSERT_NE(def, nullptr) << name;
    EXPECT_EQ(def->name, name);
    EXPECT_NE(def->run, nullptr) << name;
    EXPECT_FALSE(def->description.empty()) << name;
    EXPECT_FALSE(def->family.empty()) << name;
  }
  EXPECT_EQ(experiments().find("no_such_experiment"), nullptr);
}

TEST(Registry, EveryExperimentHasAReducedDeterminismConfig) {
  // The determinism matrix below must not silently skip an experiment
  // someone adds later: registering one forces adding a reduced config.
  for (const ExperimentDef& def : experiments().all()) {
    bool covered = false;
    for (const ExpConfig& cfg : reduced_configs())
      covered = covered || cfg.name == def.name;
    EXPECT_TRUE(covered) << "no reduced determinism config for '" << def.name
                         << "' in test_bench_experiments.cpp";
  }
}

TEST(Determinism, EveryExperimentIsByteIdenticalAcrossThreadCounts) {
  for (const ExpConfig& cfg : reduced_configs()) {
    SCOPED_TRACE(cfg.name);
    const std::string serial = run_reduced(cfg, 1, 42);
    const std::string parallel = run_reduced(cfg, 8, 42);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
  }
}

TEST(Determinism, ParallelBranchAndBoundIsByteIdenticalAcrossBbThreads) {
  // The B&B-backed experiments accept --bb-threads (default: the engine's
  // --threads); the round-synchronous search guarantees byte-identical
  // JSONL at any value. This pins the parallel reference path explicitly,
  // independent of the engine-thread matrix above.
  const std::vector<ExpConfig> cases{
      {"table2", {"--max-v=12", "--bb-nodes=500", "--bb-threads=1"}},
      {"table2", {"--max-v=12", "--bb-nodes=500", "--bb-threads=8"}},
      {"table3", {"--max-v=12", "--bb-nodes=500", "--bb-threads=1"}},
      {"table3", {"--max-v=12", "--bb-nodes=500", "--bb-threads=8"}},
      {"ablate_bb",
       {"--max-nodes=10", "--bb-nodes=1000", "--naive-nodes=10000",
        "--no-timing", "--bb-threads=1"}},
      {"ablate_bb",
       {"--max-nodes=10", "--bb-nodes=1000", "--naive-nodes=10000",
        "--no-timing", "--bb-threads=8"}},
  };
  for (std::size_t i = 0; i < cases.size(); i += 2) {
    SCOPED_TRACE(cases[i].name);
    const std::string serial = run_reduced(cases[i], 2, 42);
    const std::string parallel = run_reduced(cases[i + 1], 2, 42);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
  }
}

TEST(Determinism, MasterSeedChangesTheStream) {
  const ExpConfig cfg{"ablate_insertion", {"--graphs=2", "--nodes=60"}};
  EXPECT_NE(run_reduced(cfg, 2, 1), run_reduced(cfg, 2, 2));
}

TEST(OutFile, SecondExperimentOfOneInvocationAppends) {
  const fs::path path = temp_jsonl("append");
  // Two experiments, one explicit --out: the second must append.
  ASSERT_EQ(run_bench({"--experiment=table1", "--experiment=fig4",
                       "--max-dim=8", "--seed=42", "--threads=2",
                       "--out=" + path.string(), "--quiet", "--no-csv"}),
            0);
  const std::string both = read_file(path);
  EXPECT_NE(both.find("\"experiment\":\"table1\""), std::string::npos);
  EXPECT_NE(both.find("\"experiment\":\"fig4\""), std::string::npos);
  // table1's records all precede fig4's.
  EXPECT_LT(both.rfind("\"experiment\":\"table1\""),
            both.find("\"experiment\":\"fig4\""));

  // A fresh invocation truncates: the fig4 records are gone.
  ASSERT_EQ(run_bench({"--experiment=table1", "--seed=42", "--threads=2",
                       "--out=" + path.string(), "--quiet", "--no-csv"}),
            0);
  const std::string solo = read_file(path);
  EXPECT_NE(solo.find("\"experiment\":\"table1\""), std::string::npos);
  EXPECT_EQ(solo.find("\"experiment\":\"fig4\""), std::string::npos);
  EXPECT_LT(solo.size(), both.size());
  std::error_code ec;
  fs::remove(path, ec);
}

TEST(Cli, UnknownExperimentFailsWithUsage) {
  EXPECT_EQ(run_bench({"--experiment=definitely_not_real", "--quiet"}), 2);
  EXPECT_EQ(run_bench({"--quiet"}), 2);  // no experiment at all
  EXPECT_EQ(run_bench({"--list"}), 0);
}

TEST(Cli, MistypedAlgoFilterThrows) {
  // A typo must not silently run the sweep with an empty algorithm set.
  EXPECT_THROW(run_bench({"--experiment=table2", "--algo=NOPE", "--quiet",
                          "--no-csv", "--out=none"}),
               std::invalid_argument);
  // A BNP-only name is equally unknown to the UNC-only table2.
  EXPECT_THROW(run_bench({"--experiment=table2", "--algo=MCP", "--quiet",
                          "--no-csv", "--out=none"}),
               std::invalid_argument);
  // ...but valid for experiments that span several classes.
  EXPECT_EQ(run_bench({"--experiment=micro", "--algo=MCP", "--reps=1",
                       "--no-timing", "--quiet", "--no-csv", "--out=none"}),
            0);
}

}  // namespace
}  // namespace tgs::bench
