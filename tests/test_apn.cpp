// Tests for the four APN algorithms: message-level validity across
// topologies, determinism, and algorithm-specific behaviours.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fixture_graphs.h"
#include "oracles.h"
#include "reference_bsa.h"
#include "reference_net.h"
#include "tgs/apn/bsa.h"
#include "tgs/apn/bu.h"
#include "tgs/apn/dls_apn.h"
#include "tgs/apn/mh.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/structured.h"
#include "tgs/graph/attributes.h"
#include "tgs/harness/registry.h"
#include "tgs/net/net_validate.h"
#include "tgs/unc/cluster_schedule.h"
#include "tgs/util/mem.h"

namespace tgs {
namespace {

std::vector<TaskGraph> apn_zoo() {
  std::vector<TaskGraph> zoo;
  zoo.push_back(psg_canonical9());
  zoo.push_back(psg_irregular13());
  zoo.push_back(chain_graph(6, 10, 20));
  zoo.push_back(fork_join(5, 10, 30));
  RgnosParams p;
  p.num_nodes = 50;
  p.ccr = 1.0;
  p.parallelism = 3;
  p.seed = 14;
  zoo.push_back(rgnos_graph(p));
  return zoo;
}

std::vector<Topology> topo_zoo() {
  std::vector<Topology> topos;
  topos.push_back(Topology::ring(4));
  topos.push_back(Topology::mesh(2, 3));
  topos.push_back(Topology::hypercube(3));
  topos.push_back(Topology::fully_connected(4));
  topos.push_back(Topology::star(5));
  return topos;
}

TEST(Apn, AllValidAcrossTopologies) {
  for (const auto& topo : topo_zoo()) {
    const RoutingTable routes(topo);
    for (const auto& algo : make_apn_schedulers()) {
      for (const auto& g : apn_zoo()) {
        const NetSchedule ns = algo->run(g, routes);
        const auto v = validate_net_schedule(ns);
        EXPECT_TRUE(v.ok) << algo->name() << " on " << g.name() << " / "
                          << topo.name() << ": " << v.error;
        EXPECT_GE(ns.makespan(), computation_critical_path_length(g));
      }
    }
  }
}

TEST(Apn, Deterministic) {
  const Topology topo = Topology::hypercube(3);
  const RoutingTable routes(topo);
  RgnosParams p;
  p.num_nodes = 40;
  p.seed = 77;
  const TaskGraph g = rgnos_graph(p);
  for (const auto& algo : make_apn_schedulers()) {
    const NetSchedule a = algo->run(g, routes);
    const NetSchedule b = algo->run(g, routes);
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      EXPECT_EQ(a.tasks().proc(n), b.tasks().proc(n)) << algo->name();
      EXPECT_EQ(a.tasks().start(n), b.tasks().start(n)) << algo->name();
    }
  }
}

TEST(ApnCommon, BuildWithAssignmentRoutesEverything) {
  const TaskGraph g = psg_canonical9();
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  std::vector<ProcId> assign(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) assign[n] = n % 4;
  const NetSchedule ns =
      apn_build_with_assignment(g, routes, assign, /*insertion=*/false);
  const auto v = validate_net_schedule(ns);
  EXPECT_TRUE(v.ok) << v.error;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    EXPECT_EQ(ns.tasks().proc(n), assign[n]);
}

TEST(ApnCommon, ProbeNeverBeatsCommit) {
  // The probe ignores intra-node message contention, so the committed
  // start can only be later or equal.
  const TaskGraph g = psg_irregular13();
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  for (NodeId n : blevel_order(g)) {
    const int p = static_cast<int>(n % 4);
    const Time probe = reference::apn_probe_est(ns, n, p, false);
    const Time committed = apn_commit_node(ns, n, p, false);
    EXPECT_LE(probe, committed);
  }
  EXPECT_TRUE(validate_net_schedule(ns).ok);
}

/// Small DAG with zero-cost edges and heavy fan-in: the probe-sweep edge
/// cases (instantaneous messages, many co-located parents).
TaskGraph zero_cost_mix() {
  TaskGraphBuilder b("zero_cost_mix");
  for (int i = 0; i < 10; ++i) b.add_node(5 + i);
  b.add_edge(0, 3, 0);
  b.add_edge(0, 4, 12);
  b.add_edge(1, 4, 0);
  b.add_edge(1, 5, 30);
  b.add_edge(2, 5, 0);
  b.add_edge(3, 6, 7);
  b.add_edge(4, 6, 0);
  b.add_edge(5, 6, 25);
  b.add_edge(3, 7, 0);
  b.add_edge(4, 7, 0);
  b.add_edge(6, 8, 40);
  b.add_edge(7, 8, 0);
  b.add_edge(6, 9, 1);
  b.add_edge(7, 9, 2);
  return b.finalize();
}

TEST(ApnCommon, ProbeEstAllMatchesPerProcessor) {
  // One-to-all EST sweeps against per-processor probes, at every step of a
  // contended build-up (messages committed between probes), including
  // zero-cost edges and co-located parents.
  std::vector<TaskGraph> graphs = apn_zoo();
  graphs.push_back(zero_cost_mix());
  for (const auto& topo : topo_zoo()) {
    const RoutingTable routes(topo);
    const int nprocs = topo.num_procs();
    for (const auto& g : graphs) {
      NetSchedule ns(g, routes);
      ApnSweepScratch scratch;
      int i = 0;
      for (NodeId n : blevel_order(g)) {
        for (const bool insertion : {false, true}) {
          apn_probe_est_all(ns, n, insertion, scratch);
          for (int p = 0; p < nprocs; ++p)
            ASSERT_EQ(scratch.est[p],
                      reference::apn_probe_est(ns, n, p, insertion))
                << g.name() << " on " << topo.name() << " node " << n
                << " proc " << p << " insertion " << insertion;
        }
        // Clustered placement co-locates consecutive nodes (zero-hop
        // parents) while still crossing links regularly.
        apn_commit_node(ns, n, (i++ / 2) % nprocs, /*insertion=*/false);
      }
    }
  }
}

// Golden APN schedules on multi-hop topologies: exact (proc, start) of
// every task, captured from the pre-gap-index/pre-sweep implementation.
// Guards the byte-identical contract of the fast network core on routes
// longer than one hop (the JSONL goldens cover hypercube(3) only).
TEST(Apn, GoldenSchedulesOnMultiHopTopologies) {
  RgnosParams p;
  p.num_nodes = 60;
  p.ccr = 2.0;
  p.parallelism = 3;
  p.seed = 424242;
  const TaskGraph g = rgnos_graph(p);
  const RoutingTable ring6{Topology::ring(6)};
  const RoutingTable mesh23{Topology::mesh(2, 3)};

  using PS = std::pair<ProcId, Time>;
  const auto expect_schedule = [&](const NetSchedule& ns,
                                   const std::vector<PS>& want,
                                   const char* label) {
    ASSERT_EQ(want.size(), g.num_nodes()) << label;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      EXPECT_EQ(ns.tasks().proc(n), want[n].first) << label << " node " << n;
      EXPECT_EQ(ns.tasks().start(n), want[n].second) << label << " node " << n;
    }
  };

  const NetSchedule mh = MhScheduler().run(g, ring6);
  EXPECT_EQ(mh.makespan(), 6978);
  expect_schedule(
      mh,
      {{4,99},{4,110},{0,0},{2,43},{5,92},{3,59},{5,0},{2,76},{1,73},{4,77},
       {5,49},{0,67},{5,832},{3,0},{4,0},{2,0},{3,105},{5,88},{0,100},{0,70},
       {1,0},{4,68},{5,875},{4,1193},{0,321},{2,701},{2,1621},{3,478},
       {2,1498},{4,1392},{5,786},{1,1311},{4,1554},{1,1084},{1,1188},{3,599},
       {3,1203},{5,695},{1,857},{0,386},{2,914},{0,551},{3,3550},{3,1804},
       {1,635},{5,180},{3,1238},{2,581},{1,579},{1,5933},{1,4639},{0,4047},
       {1,5318},{1,1959},{0,5035},{0,2676},{1,3232},{1,6611},{4,6946},
       {1,5613}},
      "MH/ring6");

  const NetSchedule dls = DlsApnScheduler().run(g, ring6);
  EXPECT_EQ(dls.makespan(), 5885);
  expect_schedule(
      dls,
      {{2,101},{2,112},{3,0},{0,68},{1,73},{4,73},{3,67},{2,0},{2,55},
       {5,109},{0,104},{0,101},{5,171},{5,0},{0,0},{4,0},{1,113},{4,119},
       {5,59},{4,43},{1,0},{3,116},{3,176},{4,1194},{4,634},{5,131},{3,571},
       {4,297},{5,1715},{3,1411},{1,1453},{3,780},{1,1803},{5,1494},{0,293},
       {1,190},{2,349},{4,944},{1,540},{4,243},{5,337},{0,435},{0,1021},
       {1,2238},{1,145},{3,125},{4,163},{0,167},{1,2070},{0,3811},{1,4410},
       {4,4594},{5,3106},{1,2984},{5,2140},{1,2711},{1,3548},{2,5006},
       {5,5481},{3,5808}},
      "DLS-APN/ring6");

  const NetSchedule bu = BuScheduler().run(g, ring6);
  EXPECT_EQ(bu.makespan(), 6053);
  expect_schedule(
      bu,
      {{0,55},{1,713},{1,0},{1,359},{1,557},{1,431},{1,310},{0,0},{1,489},
       {1,535},{1,392},{1,477},{5,0},{1,183},{1,242},{1,140},{1,704},{2,30},
       {0,66},{2,0},{1,67},{1,480},{4,0},{2,1027},{1,784},{1,1032},{0,1375},
       {0,873},{2,1773},{1,1352},{1,1072},{1,1243},{1,2027},{2,1215},
       {1,1193},{2,793},{2,1914},{1,933},{1,1118},{1,849},{1,1148},{0,600},
       {0,3520},{1,2478},{1,987},{1,653},{2,2047},{1,879},{1,597},{3,5546},
       {2,3919},{0,3206},{2,4528},{0,2364},{0,4177},{1,2405},{1,2525},
       {2,5987},{1,6021},{0,5262}},
      "BU/ring6");

  const NetSchedule bsa = BsaScheduler().run(g, mesh23);
  EXPECT_EQ(bsa.makespan(), 2082);
  expect_schedule(
      bsa,
      {{3,39},{5,68},{1,0},{1,67},{2,43},{1,100},{4,59},{1,225},{1,179},
       {1,280},{3,0},{1,146},{3,50},{4,0},{5,0},{2,0},{1,463},{1,302},
       {1,306},{1,149},{0,0},{4,108},{2,83},{1,1082},{1,472},{1,840},
       {1,1340},{1,683},{1,1267},{1,1194},{1,903},{1,1173},{1,1496},
       {1,1104},{1,1024},{1,880},{1,1294},{1,741},{1,949},{1,537},{1,979},
       {1,567},{1,1439},{1,1648},{1,795},{1,412},{1,1363},{1,629},{1,356},
       {1,1933},{1,1758},{1,1735},{1,1469},{1,1391},{1,1804},{1,1543},
       {1,1694},{1,2008},{1,2050},{1,1856}},
      "BSA/mesh23");
}

/// FNV-1a over every message's (src, dst, arrival) and hops (link, start,
/// end), in (src, dst) order -- independent of the order messages() keeps.
std::uint64_t message_digest(const NetSchedule& ns) {
  std::vector<const Message*> msgs;
  for (const Message& m : ns.messages()) msgs.push_back(&m);
  std::sort(msgs.begin(), msgs.end(), [](const Message* a, const Message* b) {
    return a->src != b->src ? a->src < b->src : a->dst < b->dst;
  });
  std::uint64_t h = 1469598103934665603ull;
  const auto add = [&h](std::int64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(x) >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const Message* m : msgs) {
    add(m->src);
    add(m->dst);
    add(m->arrival);
    for (const MsgHop& hop : ns.hops(*m)) {
      add(hop.link);
      add(hop.start);
      add(hop.end);
    }
  }
  return h;
}

// Message routes and hop times, not just task placements, stay
// byte-identical across network-layer refactors: digests of every message
// of MH, DLS(APN), BU and BSA on four multi-hop topologies, frozen from the
// implementation that stored every route in an all-pairs path arena.
TEST(Apn, ApnMessagesMatchFrozenDigests) {
  struct Want {
    std::size_t messages;
    std::uint64_t digest;
  };
  // Per (topology, graph): MH, DLS(APN), BU, BSA.
  const std::vector<std::array<Want, 4>> want = {
      // ring4, v50
      {{{117, 0x1e504cdf0a9046d5ull}, {107, 0x80fb72a80187636bull},
        {87, 0x3ca75dcf60f0097dull}, {70, 0xec1b38c00335e6fdull}}},
      // ring4, v100
      {{{505, 0xf7579ad4830fa813ull}, {541, 0x0ef25d7304d84d8bull},
        {442, 0x1ec472ddcabed74full}, {84, 0x3ecf896c4d1f1679ull}}},
      // ring4, v150
      {{{1117, 0x7dd7442d427af89bull}, {1064, 0xa5a9582c23104aa2ull},
        {1042, 0x322981a8b051a50eull}, {457, 0xb2af6ffa7c32cb19ull}}},
      // mesh2x2, v50
      {{{108, 0x3af594b68ad98abeull}, {102, 0x23d02377ceb8da66ull},
        {87, 0xa624179f85f7f35cull}, {70, 0xec1b38c00335e6fdull}}},
      // mesh2x2, v100
      {{{526, 0xd285f010511a44a5ull}, {489, 0xb3ed95615cd66aceull},
        {449, 0x5ec265b81710cefaull}, {84, 0x3ecf896c4d1f1679ull}}},
      // mesh2x2, v150
      {{{1141, 0xb6410dd96f5ed59full}, {1087, 0x4e5c13f05851c67bull},
        {977, 0x5c8e00159cbf206bull}, {457, 0xb2af6ffa7c32cb19ull}}},
      // hcube3, v50
      {{{125, 0xf1f0453b92a3a201ull}, {131, 0x067211d7697940a3ull},
        {120, 0xdba986d363e11ecdull}, {89, 0x20e7f267912f2c31ull}}},
      // hcube3, v100
      {{{646, 0x3ba59fd9f05e7c41ull}, {610, 0x59e9f58fdd8a7fa4ull},
        {534, 0x66b2567495ae70c4ull}, {124, 0x3cec4a2e75f9a7efull}}},
      // hcube3, v150
      {{{1324, 0xb61e0acfb2a764faull}, {1268, 0x55688d6b0b40a556ull},
        {1129, 0x6ef9e6ebb1dfe566ull}, {660, 0xeff09f11322a3ccbull}}},
      // rand9, v50
      {{{129, 0x3831a8003e8e2a7full}, {134, 0xc42c9f922690c875ull},
        {109, 0x8b1e0795a7cd0692ull}, {120, 0xb280d1367efe1ebbull}}},
      // rand9, v100
      {{{622, 0x34fad8fbe85f6b60ull}, {618, 0x26665f60b4ca1bd4ull},
        {404, 0xacd3e018c468aaeeull}, {197, 0xdd9ef1769f6c9c2eull}}},
      // rand9, v150
      {{{1352, 0x99217fecc784597dull}, {1340, 0xa416bff53565d963ull},
        {991, 0x88ad1e6b7c16a345ull}, {993, 0xdc0c8ac7007c9f7dull}}},
  };
  const std::vector<Topology> topos = {
      Topology::ring(4), Topology::mesh(2, 2), Topology::hypercube(3),
      Topology::random_connected(9, 0.25, 11)};
  struct GraphSpec {
    NodeId v;
    double ccr;
    std::uint64_t seed;
  };
  const GraphSpec graphs[] = {{50, 1.0, 3}, {100, 2.0, 5}, {150, 0.5, 9}};
  std::size_t row = 0;
  for (const Topology& topo : topos) {
    const RoutingTable routes(topo);
    for (const GraphSpec& gs : graphs) {
      RgnosParams p;
      p.num_nodes = gs.v;
      p.ccr = gs.ccr;
      p.seed = gs.seed;
      const TaskGraph g = rgnos_graph(p);
      const NetSchedule got[] = {
          MhScheduler().run(g, routes), DlsApnScheduler().run(g, routes),
          BuScheduler().run(g, routes), BsaScheduler().run(g, routes)};
      for (std::size_t a = 0; a < 4; ++a) {
        const std::string label = topo.name() + " v=" +
                                  std::to_string(gs.v) + " algo " +
                                  std::to_string(a);
        EXPECT_TRUE(validate_net_schedule(got[a]).ok) << label;
        EXPECT_EQ(got[a].messages().size(), want[row][a].messages) << label;
        EXPECT_EQ(message_digest(got[a]), want[row][a].digest) << label;
      }
      ++row;
    }
  }
}

// The message count is the one thing production reads from the message
// table; it must not copy or sort anything.
TEST(Apn, MessageCountDoesNotAllocate) {
  RgnosParams p;
  p.num_nodes = 150;
  p.seed = 9;
  const TaskGraph g = rgnos_graph(p);
  const RoutingTable routes{Topology::ring(4)};
  const NetSchedule ns = MhScheduler().run(g, routes);
  AllocMeter meter;
  const std::size_t n = ns.messages().size();
  EXPECT_EQ(meter.count(), 0u);
  EXPECT_GT(n, 0u);
}

TEST(ApnCommon, BuildWithAssignmentRejectsWrongSizedVector) {
  const TaskGraph g = psg_canonical9();
  const RoutingTable routes{Topology::ring(4)};
  std::vector<ProcId> short_assign(g.num_nodes() - 1, 0);
  EXPECT_THROW(
      apn_build_with_assignment(g, routes, short_assign, /*insertion=*/true),
      std::invalid_argument);
  std::vector<ProcId> long_assign(g.num_nodes() + 3, 0);
  EXPECT_THROW(
      apn_build_with_assignment(g, routes, long_assign, /*insertion=*/true),
      std::invalid_argument);
}

TEST(Bsa, StartsFromMaxDegreePivotAndImproves) {
  // BSA must never be worse than the serial injection it starts from.
  const TaskGraph g = psg_canonical9();
  const Topology topo = Topology::hypercube(3);
  const RoutingTable routes(topo);
  BsaScheduler bsa;
  const NetSchedule ns = bsa.run(g, routes);
  EXPECT_LE(ns.makespan(), g.total_weight());
  EXPECT_TRUE(validate_net_schedule(ns).ok);
}

// Pin the acceptance tie rule (bsa.cpp): a migration whose resulting
// makespan EQUALS the current one is accepted (<=, not <), so ties cause
// task churn by design. Construction: P (w=10) -> X (w=2, c=1) and
// P -> D (w=5, c=50); E (w=17) independent, on fully_connected(3).
// Serial injection stacks P, E, D, X on the pivot in b-level order. E
// bubbles away (ends at 17 on a neighbour), D is pinned by its 50-cost
// message, so X is processed at start 15 behind D while the makespan is
// pinned at 17 by E. X's best EST elsewhere is 11: migrating improves
// X's start but leaves the makespan at exactly 17 -- and the <= rule
// moves it anyway. Flipping <= to < would keep X on the pivot and fail
// this test (and the goldens).
TEST(Bsa, EqualMakespanMigrationIsAccepted) {
  TaskGraphBuilder b("bsa_tie");
  b.add_node(10);        // 0: P
  b.add_node(17);        // 1: E
  b.add_node(5);         // 2: D
  b.add_node(2);         // 3: X
  b.add_edge(0, 2, 50);  // P -> D: migrating D never pays
  b.add_edge(0, 3, 1);   // P -> X: cheap enough to churn
  const TaskGraph g = b.finalize();
  const RoutingTable routes{Topology::fully_connected(3)};
  const int pivot0 = routes.topology().max_degree_proc();

  const NetSchedule ns = BsaScheduler().run(g, routes);
  EXPECT_EQ(ns.makespan(), 17);
  // The tie churn happened: X left the pivot and starts at its probed 11.
  EXPECT_NE(ns.tasks().proc(3), pivot0);
  EXPECT_EQ(ns.tasks().start(3), 11);
  // ...for zero makespan gain: keeping X on the pivot scores the same.
  std::vector<ProcId> stay(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) stay[n] = ns.tasks().proc(n);
  stay[3] = static_cast<ProcId>(pivot0);
  EXPECT_EQ(apn_build_with_assignment(g, routes, stay, /*insertion=*/true)
                .makespan(),
            ns.makespan());
}

// Two network schedules are the same schedule: every task, every message
// in commit order with every hop, and every processor's and link's
// reservations in order.
void expect_same_net(const NetSchedule& a, const NetSchedule& b,
                     const std::string& what) {
  const TaskGraph& g = a.graph();
  ASSERT_EQ(g.num_nodes(), b.graph().num_nodes()) << what;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    ASSERT_EQ(a.tasks().proc(n), b.tasks().proc(n)) << what << " node " << n;
    ASSERT_EQ(a.tasks().start(n), b.tasks().start(n)) << what << " node " << n;
  }
  ASSERT_EQ(a.tasks().num_procs(), b.tasks().num_procs()) << what;
  for (int p = 0; p < a.tasks().num_procs(); ++p)
    ASSERT_EQ(a.tasks().timeline(p).intervals(),
              b.tasks().timeline(p).intervals())
        << what << " proc " << p;
  ASSERT_EQ(a.messages().size(), b.messages().size()) << what;
  for (std::size_t i = 0; i < a.messages().size(); ++i) {
    const Message& x = a.messages()[i];
    const Message& y = b.messages()[i];
    const std::string at = what + " message " + std::to_string(i);
    ASSERT_EQ(x.src, y.src) << at;
    ASSERT_EQ(x.dst, y.dst) << at;
    ASSERT_EQ(x.size, y.size) << at;
    ASSERT_EQ(x.depart_after, y.depart_after) << at;
    ASSERT_EQ(x.arrival, y.arrival) << at;
    ASSERT_EQ(x.hop_count, y.hop_count) << at;
    ASSERT_EQ(reference::find_message(a, x.src, x.dst), &x) << at;
    ASSERT_EQ(reference::find_message(b, y.src, y.dst), &y) << at;
    const std::span<const MsgHop> hx = a.hops(x);
    const std::span<const MsgHop> hy = b.hops(y);
    for (std::size_t h = 0; h < hx.size(); ++h) {
      ASSERT_EQ(hx[h].link, hy[h].link) << at << " hop " << h;
      ASSERT_EQ(hx[h].start, hy[h].start) << at << " hop " << h;
      ASSERT_EQ(hx[h].end, hy[h].end) << at << " hop " << h;
    }
  }
  for (int l = 0; l < a.topology().num_links(); ++l)
    ASSERT_EQ(a.link_timeline(l).intervals(), b.link_timeline(l).intervals())
        << what << " link " << l;
}

TaskGraph apn_rgnos(NodeId v, double ccr, std::uint64_t seed) {
  RgnosParams p;
  p.num_nodes = v;
  p.ccr = ccr;
  p.seed = seed;
  return rgnos_graph(p);
}

// The double-buffered BSA (rebuild into a reset spare, swap on accept)
// against the frozen BSA that builds a fresh schedule per migration: the
// whole NetSchedule, on communication-light to -heavy graphs and four
// topologies, with one workspace reused across every graph.
TEST(Bsa, MatchesFreshScheduleReference) {
  const std::vector<Topology> topos = {
      Topology::ring(4), Topology::mesh(2, 3), Topology::hypercube(3),
      Topology::fully_connected(5)};
  SchedWorkspace ws;
  std::uint64_t seed = 31;
  for (const Topology& topo : topos) {
    const RoutingTable routes(topo);
    for (const NodeId v : {60u, 200u}) {
      for (const double ccr : {0.1, 1.0, 10.0}) {
        const TaskGraph g = apn_rgnos(v, ccr, seed++);
        const std::string what = topo.name() + " v=" + std::to_string(v) +
                                 " ccr=" + std::to_string(ccr);
        ws.begin_graph(g);
        const NetSchedule got = BsaScheduler().run(g, routes, ws);
        std::size_t rebuilds = 0;
        const NetSchedule want = reference::original_bsa(g, routes, &rebuilds);
        EXPECT_GT(rebuilds, 0u) << what;
        expect_same_net(got, want, what);
        EXPECT_TRUE(validate_net_schedule(got).ok) << what;
      }
    }
  }
}

// reset() returns a NetSchedule to the state of a fresh one: rebuilding a
// used schedule from another assignment equals building that assignment
// into a new schedule, whichever schedule it was used for before.
TEST(ApnCommon, ResetThenRebuildEqualsFreshBuild) {
  const TaskGraph g = apn_rgnos(120, 2.0, 5);
  const RoutingTable routes{Topology::mesh(2, 3)};
  const std::vector<NodeId> order = blevel_order(g);
  std::vector<ProcId> a(g.num_nodes()), b(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    a[n] = static_cast<ProcId>(n % 6);
    b[n] = static_cast<ProcId>((n / 3) % 6);
  }
  NetSchedule ns(g, routes);
  apn_build_into(ns, order, a, /*insertion=*/true);
  expect_same_net(ns, apn_build_with_assignment(g, routes, a, true), "a");
  apn_build_into(ns, order, b, /*insertion=*/true);
  expect_same_net(ns, apn_build_with_assignment(g, routes, b, true), "b");
  apn_build_into(ns, order, a, /*insertion=*/false);
  expect_same_net(ns, apn_build_with_assignment(g, routes, a, false),
                  "a append");
  ASSERT_FALSE(ns.messages().empty());
  const Message first = ns.messages()[0];
  ns.reset();
  EXPECT_EQ(ns.messages().size(), 0u);
  EXPECT_EQ(reference::find_message(ns, first.src, first.dst), nullptr);
  EXPECT_EQ(ns.tasks().placed_count(), 0u);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_FALSE(ns.tasks().is_placed(n));
    EXPECT_EQ(ns.tasks().start(n), 0);
  }
  EXPECT_EQ(ns.makespan(), 0);
  for (int l = 0; l < routes.topology().num_links(); ++l)
    EXPECT_TRUE(ns.link_timeline(l).empty());
}

// A BSA call rebuilds its schedule once per tentative migration, but
// into a reset spare that keeps its buffers, so its allocation count is
// bounded by the shape of the network schedule, not by the number of
// rebuilds. The bound counts, for each of the two schedules:
//  * one buffer per chunk: a chunk other than a timeline's first holds at
//    least kSplit / 2 = 24 intervals, and there are v task intervals and
//    at most diameter x E hops, so C <= P + L + (v + diameter x E) / 24
//    chunks over the P processor and L link timelines;
//  * per timeline, the doubling of its first chunk buffer (7 steps up to
//    kSplit + 1) and of its chunk array, gap tree and spare pool (each at
//    most log2(C) + 1 steps);
//  * the doubling of the message and hop arrays.
// Per run: the fixed arrays and, per pivot, its snapshot of tasks. The
// frozen BSA, which builds a fresh schedule per migration, exceeds the
// same bound many times over.
TEST(Bsa, AllocationsDoNotGrowWithRebuilds) {
  const TaskGraph g = apn_rgnos(300, 0.1, 17);
  const RoutingTable routes{Topology::hypercube(3)};
  const std::uint64_t procs = 8, links = 12, diameter = 3;
  const std::uint64_t v = g.num_nodes(), hops = diameter * g.num_edges();
  const std::uint64_t chunks = procs + links + (v + hops) / 24;
  const auto log2_ceil = [](std::uint64_t x) {
    std::uint64_t b = 0;
    while ((std::uint64_t{1} << b) < x) ++b;
    return b;
  };
  const std::uint64_t per_schedule =
      chunks + (procs + links) * (7 + 3 * (log2_ceil(chunks) + 1)) +
      2 * (log2_ceil(hops) + 1) + 8;
  const std::uint64_t bound =
      2 * per_schedule + 32 + procs * (log2_ceil(v) + 2);

  SchedWorkspace ws;
  ws.begin_graph(g);
  AllocMeter meter;
  const NetSchedule ns = BsaScheduler().run(g, routes, ws);
  const std::uint64_t allocs = meter.count();
  std::size_t rebuilds = 0;
  meter.reset();
  const NetSchedule ref = reference::original_bsa(g, routes, &rebuilds);
  const std::uint64_t ref_allocs = meter.count();

  EXPECT_GT(rebuilds, 100u);
  EXPECT_LE(allocs, bound) << rebuilds << " rebuilds";
  EXPECT_GT(ref_allocs, 4 * bound) << rebuilds << " rebuilds";
  EXPECT_EQ(ns.makespan(), ref.makespan());
}

TEST(Bsa, SingleProcessorTopologyDegeneratesToSerial) {
  const TaskGraph g = psg_canonical9();
  const Topology topo = Topology::fully_connected(1);
  const RoutingTable routes(topo);
  BsaScheduler bsa;
  const NetSchedule ns = bsa.run(g, routes);
  EXPECT_EQ(ns.makespan(), g.total_weight());
}

TEST(Bu, AssignsChildrenBeforeParents) {
  // On a chain, BU's bottom-up pull keeps everything on one processor.
  const TaskGraph g = chain_graph(6, 10, 25);
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  BuScheduler bu;
  const NetSchedule ns = bu.run(g, routes);
  EXPECT_EQ(ns.tasks().procs_used(), 1);
  EXPECT_EQ(ns.makespan(), 60);
}

TEST(Mh, ChainStaysLocal) {
  const TaskGraph g = chain_graph(6, 10, 25);
  const Topology topo = Topology::mesh(2, 2);
  const RoutingTable routes(topo);
  MhScheduler mh;
  const NetSchedule ns = mh.run(g, routes);
  EXPECT_EQ(ns.tasks().procs_used(), 1);
  EXPECT_EQ(ns.makespan(), 60);
}

TEST(DlsApn, ChainStaysLocal) {
  const TaskGraph g = chain_graph(6, 10, 25);
  const Topology topo = Topology::hypercube(2);
  const RoutingTable routes(topo);
  DlsApnScheduler dls;
  const NetSchedule ns = dls.run(g, routes);
  EXPECT_EQ(ns.tasks().procs_used(), 1);
  EXPECT_EQ(ns.makespan(), 60);
}

TEST(Apn, MoreLinksNeverHurtMuch) {
  // Paper §6.4.1: "all algorithms perform better on the networks with more
  // communication links". Compare ring vs clique on the same graph; allow
  // slack (heuristics are not monotone), but the clique should win for the
  // contention-heavy fork-join.
  const TaskGraph g = fork_join(8, 10, 40);
  const RoutingTable ring_routes{Topology::ring(4)};
  const RoutingTable clique_routes{Topology::fully_connected(4)};
  for (const auto& algo : make_apn_schedulers()) {
    const Time ring_len = algo->run(g, ring_routes).makespan();
    const Time clique_len = algo->run(g, clique_routes).makespan();
    EXPECT_LE(clique_len, ring_len) << algo->name();
  }
}

}  // namespace
}  // namespace tgs
