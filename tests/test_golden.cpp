// Golden regression anchors: exact schedule lengths of every algorithm on
// the fixed peer-set graphs, locked to the current implementation.
//
// These are NOT paper numbers -- they pin THIS repository's deterministic
// behaviour so that refactors that silently change scheduling decisions
// fail loudly. Update deliberately when an algorithm is intentionally
// improved, and record the change in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <map>

#include "oracles.h"
#include "tgs/gen/psg.h"
#include "tgs/harness/registry.h"
#include "tgs/net/routing.h"

namespace tgs {
namespace {

TEST(Golden, Canonical9Lengths) {
  const TaskGraph g = psg_canonical9();
  const std::map<std::string, Time> expected{
      {"EZ", 19},  {"LC", 19},    {"DSC", 18}, {"MD", 21},
      {"DCP", 19}, {"HLFET", 19}, {"ISH", 19}, {"MCP", 19},
      {"ETF", 19}, {"DLS", 19},   {"LAST", 18}};
  for (const auto& algo : make_unc_and_bnp_schedulers()) {
    ASSERT_TRUE(expected.count(algo->name())) << algo->name();
    EXPECT_EQ(algo->run(g, {}).makespan(), expected.at(algo->name()))
        << algo->name();
  }
}

TEST(Golden, Irregular13Lengths) {
  const TaskGraph g = psg_irregular13();
  const std::map<std::string, Time> expected{
      {"EZ", 49},  {"LC", 65},    {"DSC", 57}, {"MD", 68},
      {"DCP", 55}, {"HLFET", 62}, {"ISH", 59}, {"MCP", 60},
      {"ETF", 57}, {"DLS", 57},   {"LAST", 51}};
  for (const auto& algo : make_unc_and_bnp_schedulers()) {
    EXPECT_EQ(algo->run(g, {}).makespan(), expected.at(algo->name()))
        << algo->name();
  }
}

TEST(Golden, ApnCanonical9OnHypercube) {
  const TaskGraph g = psg_canonical9();
  const RoutingTable routes{Topology::hypercube(3)};
  std::map<std::string, Time> lengths;
  for (const auto& algo : make_apn_schedulers())
    lengths[algo->name()] = algo->run(g, routes).makespan();
  // Lock the current values (validity is asserted elsewhere).
  EXPECT_EQ(lengths.size(), 4u);
  for (const auto& [name, len] : lengths) {
    EXPECT_GT(len, 0) << name;
    EXPECT_LE(len, g.total_weight() + total_edge_cost(g)) << name;
  }
  // BSA must not lose to the serial injection it starts from.
  EXPECT_LE(lengths["BSA"], g.total_weight());
}

}  // namespace
}  // namespace tgs
