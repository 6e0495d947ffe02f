// Tests for the network substrate: topologies, routing (the per-source
// routing trees: sweep order and route walks), message scheduling,
// one-to-all probes, APN validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <vector>

#include "fixture_graphs.h"
#include "oracles.h"
#include "reference_net.h"
#include "tgs/gen/structured.h"
#include "tgs/net/net_schedule.h"
#include "tgs/net/net_validate.h"
#include "tgs/net/routing.h"
#include "tgs/net/topology.h"
#include "tgs/util/mem.h"
#include "tgs/util/rng.h"

namespace tgs {
namespace {

std::vector<Topology> probe_topo_zoo() {
  std::vector<Topology> topos;
  topos.push_back(Topology::ring(7));
  topos.push_back(Topology::mesh(3, 3));
  topos.push_back(Topology::hypercube(3));
  topos.push_back(Topology::star(6));
  topos.push_back(Topology::fully_connected(5));
  topos.push_back(Topology::random_connected(9, 0.25, 11));
  topos.push_back(Topology::random_connected(12, 0.1, 23));
  return topos;
}

TEST(Topology, CliqueCounts) {
  const Topology t = Topology::fully_connected(6);
  EXPECT_EQ(t.num_procs(), 6);
  EXPECT_EQ(t.num_links(), 15);
  EXPECT_EQ(t.degree(0), 5);
}

TEST(Topology, RingCounts) {
  const Topology t = Topology::ring(8);
  EXPECT_EQ(t.num_links(), 8);
  for (int p = 0; p < 8; ++p) EXPECT_EQ(t.degree(p), 2);
  EXPECT_GE(link_between(t, 0, 7), 0);
  EXPECT_EQ(link_between(t, 0, 3), -1);
}

TEST(Topology, RingOfTwo) {
  const Topology t = Topology::ring(2);
  EXPECT_EQ(t.num_links(), 1);
}

TEST(Topology, MeshCounts) {
  const Topology t = Topology::mesh(2, 4);
  EXPECT_EQ(t.num_procs(), 8);
  EXPECT_EQ(t.num_links(), 2 * 3 + 4);  // rows*(cols-1) + cols*(rows-1)
  EXPECT_EQ(t.degree(0), 2);            // corner
}

TEST(Topology, HypercubeCounts) {
  const Topology t = Topology::hypercube(3);
  EXPECT_EQ(t.num_procs(), 8);
  EXPECT_EQ(t.num_links(), 12);  // d * 2^d / 2
  for (int p = 0; p < 8; ++p) EXPECT_EQ(t.degree(p), 3);
}

TEST(Topology, StarHub) {
  const Topology t = Topology::star(5);
  EXPECT_EQ(t.num_links(), 4);
  EXPECT_EQ(t.max_degree_proc(), 0);
}

TEST(Topology, RandomConnectedIsConnected) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Topology t = Topology::random_connected(9, 0.2, seed);
    // RoutingTable construction throws if disconnected.
    EXPECT_NO_THROW(RoutingTable{t});
  }
}

TEST(Topology, DeterministicRandom) {
  const Topology a = Topology::random_connected(7, 0.3, 5);
  const Topology b = Topology::random_connected(7, 0.3, 5);
  EXPECT_EQ(a.links(), b.links());
}

TEST(Routing, CliqueSingleHop) {
  const Topology t = Topology::fully_connected(4);
  const RoutingTable r(t);
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b)
      if (a != b) {
        EXPECT_EQ(r.distance(a, b), 1);
      }
}

TEST(Routing, RingShortestPath) {
  const Topology t = Topology::ring(6);
  const RoutingTable r(t);
  EXPECT_EQ(r.distance(0, 3), 3);
  EXPECT_EQ(r.distance(0, 5), 1);
  EXPECT_EQ(r.distance(2, 4), 2);
}

TEST(Routing, HypercubeHammingDistance) {
  const Topology t = Topology::hypercube(4);
  const RoutingTable r(t);
  EXPECT_EQ(r.distance(0b0000, 0b1111), 4);
  EXPECT_EQ(r.distance(0b0101, 0b0100), 1);
}

/// Link ids of the route src -> dst by an independent BFS from src that
/// visits neighbours in ascending id order (the smallest-id tie-break).
std::vector<int> bfs_route(const Topology& t, int src, int dst) {
  const int p = t.num_procs();
  std::vector<int> parent(p, -1);
  std::vector<bool> seen(p, false);
  std::queue<int> q;
  seen[src] = true;
  q.push(src);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (int w = 0; w < p; ++w) {
      if (seen[w] || link_between(t, u, w) < 0) continue;
      seen[w] = true;
      parent[w] = u;
      q.push(w);
    }
  }
  std::vector<int> route;
  for (int cur = dst; cur != src; cur = parent[cur])
    route.push_back(link_between(t, parent[cur], cur));
  std::reverse(route.begin(), route.end());
  return route;
}

/// The route src -> dst read back from the routing tree.
std::vector<int> tree_route(const RoutingTable& r, int src, int dst) {
  std::vector<int> route;
  for (int cur = dst; cur != src;) {
    const RoutingTable::SweepStep& st = r.tree_edge(src, cur);
    route.push_back(st.link);
    cur = st.parent;
  }
  std::reverse(route.begin(), route.end());
  return route;
}

TEST(Routing, RoutesMatchBfsReference) {
  for (const Topology& t : probe_topo_zoo()) {
    const RoutingTable r(t);
    const int p = t.num_procs();
    for (int src = 0; src < p; ++src)
      for (int dst = 0; dst < p; ++dst) {
        const std::vector<int> want = bfs_route(t, src, dst);
        EXPECT_EQ(tree_route(r, src, dst), want)
            << t.name() << " " << src << "->" << dst;
        EXPECT_EQ(r.distance(src, dst), static_cast<int>(want.size()))
            << t.name() << " " << src << "->" << dst;
      }
  }
}

// The routing trees are the only route store: O(P^2) memory, where the
// retired all-paths arena was O(P^2 x diameter) (~140 MB for ring512).
TEST(Routing, Ring512FitsInTenMegabytes) {
  const Topology t = Topology::ring(512);
  AllocMeter meter;
  const RoutingTable r(t);
  EXPECT_LE(meter.bytes(), 10u << 20);
  EXPECT_EQ(r.distance(0, 256), 256);
}

TEST(Routing, SweepIsTheRoutingTreeInParentFirstOrder) {
  for (const Topology& t : probe_topo_zoo()) {
    const RoutingTable r(t);
    const int p = t.num_procs();
    for (int src = 0; src < p; ++src) {
      const auto steps = r.sweep(src);
      ASSERT_EQ(steps.size(), static_cast<std::size_t>(p - 1));
      std::vector<bool> reached(p, false);
      reached[src] = true;
      for (const RoutingTable::SweepStep& st : steps) {
        // Parents precede children, every step crosses a real link one hop
        // deeper than its parent, and the per-destination lookup finds it.
        EXPECT_TRUE(reached[st.parent]);
        EXPECT_FALSE(reached[st.proc]);
        reached[st.proc] = true;
        EXPECT_EQ(link_between(t, st.parent, st.proc), st.link);
        EXPECT_EQ(st.depth, r.distance(src, st.parent) + 1);
        EXPECT_EQ(&r.tree_edge(src, st.proc), &st);
      }
      for (int dst = 0; dst < p; ++dst) EXPECT_TRUE(reached[dst]);
    }
  }
}

TEST(NetSchedule, ProbeArrivalAllMatchesPerDestination) {
  // One-to-all routing-tree sweeps against per-destination probes, under
  // random link contention: commit messages from a synthetic fan-out
  // graph, then compare every (src, size, depart) sweep.
  const TaskGraph g = fork_join(40, 10, 25);
  for (const Topology& topo : probe_topo_zoo()) {
    const RoutingTable routes(topo);
    const int p = topo.num_procs();
    Rng rng(2026);
    NetSchedule ns(g, routes);
    ns.tasks().place(0, 0, 0);  // fork node feeds all messages
    int committed = 0;
    for (NodeId w = 1; w <= 40; ++w) {
      const int dst = static_cast<int>(rng.uniform_int(0, p - 1));
      if (dst != 0) ++committed;
      // co-located commits are no-ops
      reference::commit_message(ns, 0, w, dst);
    }
    ASSERT_GT(committed, 0);
    std::vector<Time> all(static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      for (const Cost size : {0, 3, 25, 400}) {
        const Time depart = rng.uniform_int(0, 500);
        ns.probe_arrival_all(src, size, depart, all);
        for (int dst = 0; dst < p; ++dst)
          EXPECT_EQ(all[dst],
                    reference::probe_arrival(ns, src, dst, size, depart))
              << topo.name() << " src=" << src << " dst=" << dst
              << " size=" << size << " depart=" << depart;
      }
    }
  }
}

TEST(NetSchedule, FindMessageIsKeyed) {
  const TaskGraph g = fork_join(2, 10, 8);
  const RoutingTable routes{Topology::ring(4)};
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  reference::commit_message(ns, 0, 1, 1);
  ASSERT_NE(reference::find_message(ns, 0, 1), nullptr);
  EXPECT_EQ(reference::find_message(ns, 0, 1)->src, 0u);
  EXPECT_EQ(reference::find_message(ns, 0, 1)->dst, 1u);
  EXPECT_EQ(reference::find_message(ns, 0, 2), nullptr);
  EXPECT_EQ(reference::find_message(ns, 1, 0), nullptr);  // direction matters
}

TEST(NetSchedule, MessagesAreOneFlatTableInCommitOrder) {
  const TaskGraph g = fork_join(3, 10, 8);  // fork(0) w1..w3 join(4)
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  reference::commit_message(ns, 0, 3, 2);  // two hops
  reference::commit_message(ns, 0, 1, 0);  // co-located: no message
  reference::commit_message(ns, 0, 2, 1);  // one hop
  ASSERT_EQ(ns.messages().size(), 2u);
  EXPECT_EQ(ns.messages()[0].dst, 3u);
  EXPECT_EQ(ns.messages()[1].dst, 2u);
  EXPECT_EQ(reference::find_message(ns, 0, 1), nullptr);
  EXPECT_EQ(reference::find_message(ns, 0, 2), &ns.messages()[1]);
  EXPECT_EQ(ns.hops(ns.messages()[0]).size(), 2u);
  EXPECT_EQ(ns.hops(ns.messages()[1]).size(), 1u);
  // Link reservations are owned by the message's index: both routes
  // start on link 0-1 (0 -> 2 goes through 1), serialized in commit order.
  const int link = link_between(topo, 0, 1);
  ASSERT_EQ(ns.link_timeline(link).size(), 2u);
  EXPECT_EQ(ns.link_timeline(link).intervals()[0].owner, 0);
  EXPECT_EQ(ns.link_timeline(link).intervals()[1].owner, 1);
  // A second commit of the same edge throws and changes nothing.
  EXPECT_THROW(reference::commit_message(ns, 0, 2, 1), std::logic_error);
  EXPECT_EQ(ns.messages().size(), 2u);
  EXPECT_EQ(ns.link_timeline(link).size(), 2u);
  EXPECT_THROW(reference::commit_message(ns, 1, 2, 1),
               std::logic_error);  // no edge
  // The hop arena is addressed by offset, so a copy reads the same hops.
  const NetSchedule copy = ns;
  EXPECT_EQ(copy.hops(copy.messages()[0])[1].end,
            ns.hops(ns.messages()[0])[1].end);
}

TEST(NetSchedule, MessageHopsAndContention) {
  // Two messages over the same ring link must serialize.
  const TaskGraph g = fork_join(2, 10, 8);  // fork(0) w1(1) w2(2) join(3)
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);  // fork on P0, finishes at 10
  // Both workers on P1: two messages 0->1 over the same link.
  const Time a1 = reference::commit_message(ns, 0, 1, 1);
  const Time a2 = reference::commit_message(ns, 0, 2, 1);
  EXPECT_EQ(a1, 18);  // depart 10 + 8
  EXPECT_EQ(a2, 26);  // serialized behind the first
  ns.tasks().place(1, 1, a1);
  ns.tasks().place(2, 1, 28);
  // Join back on P0.
  const Time a3 = reference::commit_message(ns, 1, 3, 0);
  const Time a4 = reference::commit_message(ns, 2, 3, 0);
  ns.tasks().place(3, 0, std::max(a3, a4));
  const auto v = validate_net_schedule(ns);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(NetSchedule, MultiHopStoreAndForward) {
  const TaskGraph g = chain_graph(2, 10, 6);
  const Topology topo = Topology::ring(6);  // 0 -> 3 needs 3 hops
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  const Time arrival = reference::commit_message(ns, 0, 1, 3);
  EXPECT_EQ(arrival, 10 + 3 * 6);
  ns.tasks().place(1, 3, arrival);
  EXPECT_TRUE(validate_net_schedule(ns).ok);
  ASSERT_EQ(ns.messages().size(), 1u);
  EXPECT_EQ(ns.hops(ns.messages()[0]).size(), 3u);
}

TEST(NetSchedule, ProbeMatchesCommitWhenUncontended) {
  const TaskGraph g = chain_graph(2, 10, 6);
  const Topology topo = Topology::mesh(2, 2);
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  const Time probe = reference::probe_arrival(ns, 0, 3, 6, 10);
  const Time commit = reference::commit_message(ns, 0, 1, 3);
  EXPECT_EQ(probe, commit);
}

TEST(NetValidate, CatchesMissingMessage) {
  const TaskGraph g = chain_graph(2, 10, 6);
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  ns.tasks().place(1, 1, 100);  // no message committed
  const auto v = validate_net_schedule(ns);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("missing message"), std::string::npos);
}

TEST(NetValidate, CatchesEarlyStart) {
  const TaskGraph g = chain_graph(2, 10, 6);
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  const Time arrival = reference::commit_message(ns, 0, 1, 1);
  ns.tasks().place(1, 1, arrival - 1);  // starts before the message lands
  EXPECT_FALSE(validate_net_schedule(ns).ok);
}

// A message committed toward one processor whose consumer then lands on
// the producer's processor is a stray: the edge needs no message.
TEST(NetValidate, CatchesStrayMessageOnSameProcEdge) {
  const TaskGraph g = chain_graph(2, 10, 6);
  const RoutingTable routes{Topology::ring(4)};
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  reference::commit_message(ns, 0, 1, 1);
  ns.tasks().place(1, 0, 10);
  const auto v = validate_net_schedule(ns);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("same-proc edge"), std::string::npos) << v.error;
}

// Routed toward P3, consumed on P1: both one hop from P0 on ring4, so
// only the hop-by-hop comparison against the route tells them apart.
TEST(NetValidate, CatchesMessageRoutedToWrongProc) {
  const TaskGraph g = chain_graph(2, 10, 6);
  const RoutingTable routes{Topology::ring(4)};
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 0, 0);
  const Time arrival = reference::commit_message(ns, 0, 1, 3);
  ns.tasks().place(1, 1, arrival);
  const auto v = validate_net_schedule(ns);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("off its route"), std::string::npos) << v.error;
}

TEST(NetValidate, SameProcNeedsNoMessage) {
  const TaskGraph g = chain_graph(2, 10, 6);
  const Topology topo = Topology::ring(4);
  const RoutingTable routes(topo);
  NetSchedule ns(g, routes);
  ns.tasks().place(0, 2, 0);
  ns.tasks().place(1, 2, 10);
  EXPECT_TRUE(validate_net_schedule(ns).ok);
}

}  // namespace
}  // namespace tgs
