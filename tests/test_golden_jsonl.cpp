// Golden regression tests: one tiny, fully deterministic configuration
// per experiment, compared against the committed snapshots under
// tests/golden/. Each case pins two outputs:
//  * <name>.jsonl, the record stream, field by field -- a schema change
//    (field added, renamed, reordered) or a metric drift (an algorithm
//    silently scheduling differently, a generator drawing different
//    graphs) fails tier-1 here instead of silently corrupting downstream
//    results;
//  * <name>.tables, every bench_results/*.csv table the run writes,
//    concatenated in file-name order under a "## <file>" line, byte for
//    byte -- so the rendered pivots, column order and summaries are
//    pinned too, not only the records they fold.
//
// These snapshots pin THIS repository's deterministic behaviour, not
// paper numbers. To regenerate after a deliberate change:
//
//   TGS_UPDATE_GOLDEN=1 ./test_golden_jsonl
//
// and commit the rewritten files together with the change that explains
// them. Builds pass -ffp-contract=off, so the doubles in these files are
// identical across GCC and Clang.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiments/experiments.h"
#include "tgs/util/cli.h"

#ifndef TGS_GOLDEN_DIR
#error "TGS_GOLDEN_DIR must point at tests/golden"
#endif

namespace tgs::bench {
namespace {

namespace fs = std::filesystem;

struct GoldenCase {
  std::string experiment;  // also names tests/golden/<experiment>.*
  std::vector<std::string> flags;
};

// Fixed seed, 2 worker threads (byte-identical to 1 by the determinism
// guarantee), --no-timing wherever a wall clock could leak in. Registry
// order; the cases without an --algo subset reuse test_bench_experiments'
// reduced configurations.
const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases{
      {"table1", {"--algo=MCP,DCP"}},
      // --bb-threads=8 pins the PARALLEL branch-and-bound path against the
      // committed snapshot (which --bb-threads=1 reproduces byte-for-byte
      // by the round-synchronous determinism guarantee).
      {"table2",
       {"--max-v=12", "--bb-nodes=200", "--algo=DCP", "--bb-threads=8"}},
      {"table3", {"--max-v=12", "--bb-nodes=500"}},
      {"table4", {"--max-v=50", "--algo=DCP"}},
      {"table5", {"--max-v=100"}},
      {"fig2", {"--max-nodes=50", "--algo=DCP,MCP,BSA"}},
      {"fig3", {"--max-nodes=50"}},
      {"ext_unc_cs", {"--max-v=50", "--graphs=2"}},
      {"fig4", {"--max-dim=8", "--algo=DCP,MCP,BSA"}},
      {"ablate_bb",
       {"--max-nodes=10", "--bb-nodes=300", "--naive-nodes=2000",
        "--no-timing", "--bb-threads=8"}},
      {"ablate_ccr", {"--graphs=2", "--nodes=60"}},
      {"ablate_insertion", {"--graphs=1", "--nodes=40"}},
      {"ablate_priority", {"--graphs=2", "--nodes=60", "--no-timing"}},
      {"ablate_topology", {"--graphs=2", "--nodes=40"}},
      {"table6", {"--max-nodes=50", "--no-timing", "--algo=MCP,DCP"}},
      {"micro", {"--reps=1", "--no-timing", "--algo=MCP,DCP"}},
      // One RGBOS graph x 8 parameter combinations (the CI smoke job runs
      // this exact case against the same snapshot).
      {"param_sweep",
       {"--ccr=1.0", "--max-v=10", "--bb-nodes=200", "--metric=sl,bl",
        "--ready=static,etf", "--insertion=append", "--cluster=none,lc"}},
      {"giant_sweep", {"--sizes=300,900", "--no-timing", "--algos=MCP,ETF"}},
  };
  return cases;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct CaseOutput {
  std::string jsonl;
  std::string tables;  // the bench_results/*.csv files, concatenated
};

/// Runs one case inside a fresh scratch directory, so the CSVs it writes
/// to ./bench_results/ are exactly this case's tables.
CaseOutput run_case(const GoldenCase& gc) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("tgs_golden_" + gc.experiment + "_" +
       std::to_string(static_cast<unsigned long>(::getpid())));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  const fs::path jsonl = dir / "out.jsonl";
  std::vector<std::string> args{"tgs_bench", "--experiment=" + gc.experiment};
  args.insert(args.end(), gc.flags.begin(), gc.flags.end());
  args.push_back("--seed=7");
  args.push_back("--threads=2");
  args.push_back("--out=" + jsonl.string());
  args.push_back("--quiet");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const Cli cli(static_cast<int>(argv.size()), argv.data());
  const fs::path cwd = fs::current_path();
  fs::current_path(dir);
  EXPECT_EQ(run_cli(cli), 0) << gc.experiment;
  fs::current_path(cwd);

  CaseOutput out;
  out.jsonl = read_file(jsonl);
  std::vector<fs::path> csvs;
  for (const auto& entry : fs::directory_iterator(dir / "bench_results", ec))
    if (entry.path().extension() == ".csv") csvs.push_back(entry.path());
  std::sort(csvs.begin(), csvs.end());
  for (const fs::path& csv : csvs)
    out.tables += "## " + csv.filename().string() + "\n" + read_file(csv);
  fs::remove_all(dir, ec);
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

/// Minimal parser for the flat JSONL objects the sink emits: returns the
/// (key, raw value token) pairs in serialization order. Raw tokens keep
/// string quotes, so "1" and 1 compare as different -- a type change is
/// schema drift too.
std::vector<std::pair<std::string, std::string>> parse_flat(
    const std::string& line) {
  std::vector<std::pair<std::string, std::string>> fields;
  std::size_t i = 0;
  const auto fail = [&](const std::string& why) {
    ADD_FAILURE() << "malformed JSONL at byte " << i << " (" << why
                  << "): " << line;
    return fields;
  };
  if (line.empty() || line.front() != '{' || line.back() != '}')
    return fail("not an object");
  i = 1;
  while (i < line.size() - 1) {
    if (line[i] == ',') ++i;
    if (line[i] != '"') return fail("expected key quote");
    std::size_t end = i + 1;
    while (end < line.size() && line[end] != '"')
      end += line[end] == '\\' ? 2 : 1;
    const std::string key = line.substr(i + 1, end - i - 1);
    i = end + 1;
    if (i >= line.size() || line[i] != ':') return fail("expected ':'");
    ++i;
    std::size_t vstart = i;
    if (line[i] == '"') {
      ++i;
      while (i < line.size() && line[i] != '"')
        i += line[i] == '\\' ? 2 : 1;
      ++i;
    } else {
      while (i < line.size() - 1 && line[i] != ',') ++i;
    }
    fields.emplace_back(key, line.substr(vstart, i - vstart));
  }
  return fields;
}

void compare_field_by_field(const std::string& file,
                            const std::string& expected,
                            const std::string& actual) {
  const auto exp_lines = split_lines(expected);
  const auto act_lines = split_lines(actual);
  ASSERT_EQ(exp_lines.size(), act_lines.size())
      << file << ": record count drifted";
  for (std::size_t i = 0; i < exp_lines.size(); ++i) {
    const auto exp = parse_flat(exp_lines[i]);
    const auto act = parse_flat(act_lines[i]);
    ASSERT_EQ(exp.size(), act.size())
        << file << " line " << i + 1 << ": field count drifted\n  expected: "
        << exp_lines[i] << "\n  actual:   " << act_lines[i];
    for (std::size_t f = 0; f < exp.size(); ++f) {
      EXPECT_EQ(exp[f].first, act[f].first)
          << file << " line " << i + 1 << " field " << f + 1
          << ": schema drift (key order or name)";
      EXPECT_EQ(exp[f].second, act[f].second)
          << file << " line " << i + 1 << " field '" << exp[f].first
          << "': value drifted";
    }
  }
}

TEST(GoldenJsonl, EveryExperimentMatchesItsSnapshots) {
  const fs::path dir{TGS_GOLDEN_DIR};
  const bool update = std::getenv("TGS_UPDATE_GOLDEN") != nullptr;
  for (const GoldenCase& gc : golden_cases()) {
    SCOPED_TRACE(gc.experiment);
    const CaseOutput actual = run_case(gc);
    ASSERT_FALSE(actual.jsonl.empty());
    ASSERT_FALSE(actual.tables.empty());
    const fs::path jsonl = dir / (gc.experiment + ".jsonl");
    const fs::path tables = dir / (gc.experiment + ".tables");
    if (update) {
      std::ofstream(jsonl, std::ios::binary) << actual.jsonl;
      std::ofstream(tables, std::ios::binary) << actual.tables;
      continue;
    }
    ASSERT_TRUE(fs::exists(jsonl) && fs::exists(tables))
        << gc.experiment << " snapshot missing; run TGS_UPDATE_GOLDEN=1 "
        << "./test_golden_jsonl";
    compare_field_by_field(jsonl.filename().string(), read_file(jsonl),
                           actual.jsonl);
    EXPECT_EQ(read_file(tables), actual.tables)
        << tables.filename().string() << ": rendered tables drifted";
  }
}

TEST(GoldenJsonl, ParserRoundTripsRepresentativeLine) {
  const auto fields = parse_flat(
      R"({"experiment":"t","job":3,"column":"a\"b","value":1.5,"valid":1})");
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_EQ(fields[0], (std::pair<std::string, std::string>{"experiment",
                                                            "\"t\""}));
  EXPECT_EQ(fields[1].second, "3");
  EXPECT_EQ(fields[2].second, "\"a\\\"b\"");
  EXPECT_EQ(fields[3].second, "1.5");
  EXPECT_EQ(fields[4].second, "1");
}

}  // namespace
}  // namespace tgs::bench
