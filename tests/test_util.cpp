// Unit tests for util/: rng determinism and ranges, stats, tables, cli.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>

#include "tgs/util/cli.h"
#include "tgs/util/rng.h"
#include "tgs/util/stats.h"
#include "tgs/util/table.h"

namespace tgs {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.uniform_int(-5, 17);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 17);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.uniform_int(3, 3), 3);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformMeanMatchesPaperDistribution) {
  // Paper: mean 40, min 2, max 78.
  Rng rng(13);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const Cost w = rng.uniform_mean(40, 2);
    EXPECT_GE(w, 2);
    EXPECT_LE(w, 78);
    sum += static_cast<double>(w);
  }
  EXPECT_NEAR(sum / n, 40.0, 0.5);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(99);
  Rng child = a.split();
  Rng a2(99);
  Rng child2 = a2.split();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child(), child2());
}

TEST(Stats, AccumulatorBasics) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  acc.add(2.0);
  acc.add(4.0);
  acc.add(6.0);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 12.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Table, AsciiAlignsColumns) {
  Table t({"algo", "NSL"});
  t.add_row({"MCP", "1.25"});
  t.add_row({"HLFET", "1.40"});
  const std::string out = t.to_ascii();
  EXPECT_NE(out.find("MCP"), std::string::npos);
  EXPECT_NE(out.find("HLFET"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::fmt(1.2345, 2), "1.23");
  EXPECT_EQ(Table::fmt_int(42), "42");
}

TEST(Cli, ParsesFlagsAndPositional) {
  const char* argv[] = {"prog", "--reps=5", "--verbose", "input.tgs",
                        "--ccr=2.5"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
  EXPECT_EQ(cli.get_int("reps", 1), 5);
  EXPECT_DOUBLE_EQ(cli.get_double("ccr", 1.0), 2.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.tgs");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, RepeatedFlagsCollectIntoList) {
  const char* argv[] = {"prog", "--algo=MCP", "--algo=DCP,ETF", "--algo=DLS"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_list("algo"),
            (std::vector<std::string>{"MCP", "DCP", "ETF", "DLS"}));
  // Scalar accessors see the last occurrence.
  EXPECT_EQ(cli.get("algo", ""), "DLS");
  EXPECT_TRUE(cli.get_list("absent").empty());
}

TEST(Cli, NumericAccessorsRejectTrailingGarbage) {
  const char* argv[] = {"prog", "--reps=12x", "--ccr=1.5z", "--ok=3"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_THROW(cli.get_int("reps", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("ccr", 0.0), std::invalid_argument);
  EXPECT_EQ(cli.get_int("ok", 0), 3);
}

TEST(Cli, GetIntRejectsEmptyAndOverflow) {
  const char* argv[] = {"prog", "--a=", "--b=99999999999999999999999"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_THROW(cli.get_int("a", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("b", 0), std::invalid_argument);
}

TEST(Rng, DeriveSeedIsDeterministicAndCollisionFree) {
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
  std::set<std::uint64_t> seen;
  for (std::uint64_t master : {0ull, 1ull, 42ull})
    for (std::uint64_t stream = 0; stream < 10000; ++stream)
      seen.insert(derive_seed(master, stream));
  EXPECT_EQ(seen.size(), 30000u);
}

TEST(Rng, DeriveSeedDecorrelatesAdjacentStreams) {
  // Consecutive streams of one master must not produce the correlated
  // generators that seed+i would.
  Rng a(derive_seed(99, 0)), b(derive_seed(99, 1));
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
  EXPECT_NE(derive_seed(5, 1), 5 + 1);
}

}  // namespace
}  // namespace tgs
