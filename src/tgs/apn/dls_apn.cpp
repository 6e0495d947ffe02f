// DLS(APN) -- Dynamic Level Scheduling on an arbitrary network (Sih & Lee,
// 1993; paper ref [31]).
//
// The APN form of DLS: dynamic level DL(n, p) = SL(n) - EST(n, p) where
// EST accounts for message routing and link contention (Sih & Lee's
// original targets exactly such interconnection-constrained machines).
// At every step the (ready node, processor) pair with the largest dynamic
// level wins. The exhaustive pair probing makes DLS the slowest APN
// algorithm in the paper's Table 6; its NSL is "relatively stable with
// respect to the graph size".
#include "tgs/apn/apn_common.h"

#include <algorithm>
#include <numeric>

#include "tgs/list/ready_list.h"

namespace tgs {

// Pair selection by resumable, bound-and-stop probes. Committing a node
// routes messages over shared links, so a placement can delay the EST of
// any ready node on any processor, and no cached EST stays exact. What
// holds is monotonicity: link and processor reservations only ever grow
// during this algorithm (nothing is released), and occupying a timeline
// never makes earliest_fit earlier. So:
//
//  * a running maximum of arrivals over SOME parents, probed on an older
//    link state, is at most the current data-ready time on each
//    processor, and min_p max(partial[p], end[p]) is a lower bound `lb`
//    on the node's EST that stays valid through later commits;
//  * the selection key (SL - EST descending, EST ascending, id ascending)
//    moves the same way as the EST, so a key read from `lb` is an upper
//    bound on the node's true key.
//
// Each pick scans the ready set once for the best and the runner-up by
// bound key. A best node whose probe is complete at the current commit
// count has lb == EST; it beats every rival's upper bound under a strict
// total order, so it is the pair the exhaustive scan picks. Otherwise its
// probe resumes one parent at a time, raising `lb` after each, and stops
// as soon as the runner-up beats it. A probe begun before the last commit
// restarts from its first parent (its partial maxima may be stale, though
// its `lb` stays valid). Parents are swept in order of FT + c descending,
// the likely largest arrivals first, so the bound rises fast and most
// probes stop after a few parents.
NetSchedule dls_apn_schedule(const TaskGraph& g, const RoutingTable& routes,
                             SchedWorkspace& ws) {
  const std::vector<Time>& sl = ws.attrs().static_levels();
  NetSchedule ns(g, routes);
  const Schedule& s = ns.tasks();
  const std::size_t nprocs =
      static_cast<std::size_t>(routes.topology().num_procs());
  ReadyList ready(g);

  ApnSweepScratch& sc = ws.apn_scratch();
  sc.arrival.resize(nprocs);
  sc.lb.resize(static_cast<std::size_t>(g.num_nodes()));
  sc.slot_of.resize(static_cast<std::size_t>(g.num_nodes()));
  sc.free_slots.clear();
  std::uint32_t used = 0;  // slots handed out this run; the rest are spare
  std::vector<Time>& lb = sc.lb;

  std::uint64_t commits = 0;
  constexpr std::uint64_t kNever = ~std::uint64_t{0};

  const auto admit = [&](NodeId n) {
    std::uint32_t slot;
    if (sc.free_slots.empty()) {
      slot = used++;
      if (slot == sc.slots.size()) sc.slots.emplace_back();
      if (sc.partial.size() < used * nprocs) sc.partial.resize(used * nprocs);
    } else {
      slot = sc.free_slots.back();
      sc.free_slots.pop_back();
    }
    sc.slot_of[n] = slot;
    ApnSweepScratch::ProbeSlot& st = sc.slots[slot];
    const std::span<const Adj> pars = g.parents(n);
    st.order.resize(pars.size());
    std::iota(st.order.begin(), st.order.end(), std::uint32_t{0});
    // Parents are sorted by id, so the index breaks ties by parent id.
    const auto reach = [&](std::uint32_t i) {
      return s.finish(pars[i].node) + pars[i].cost;
    };
    std::sort(st.order.begin(), st.order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const Time ra = reach(a), rb = reach(b);
                return ra != rb ? ra > rb : a < b;
              });
    st.stamp = kNever;
    lb[n] = 0;
  };

  // Raise lb[n] by the partial maxima and remember the argmin processor
  // (strict <: the smallest id wins ties).
  const auto tighten = [&](NodeId n, ApnSweepScratch::ProbeSlot& st,
                           const Time* part) {
    Time bound = kTimeInf;
    for (std::size_t p = 0; p < nprocs; ++p) {
      const Time est =
          std::max(part[p], s.timeline(static_cast<ProcId>(p)).end_time());
      if (est < bound) {
        bound = est;
        st.proc = static_cast<ProcId>(p);
      }
    }
    lb[n] = std::max(lb[n], bound);
  };

  // Bound-key order: true when a's key beats b's.
  const auto beats = [&](NodeId a, NodeId b) {
    const Time da = sl[a] - lb[a];
    const Time db = sl[b] - lb[b];
    if (da != db) return da > db;
    if (lb[a] != lb[b]) return lb[a] < lb[b];
    return a < b;
  };

  // Sweep n's parents until its probe is complete or `rival` beats it.
  // Returns true when complete (lb[n] is then n's exact EST).
  const auto advance = [&](NodeId n, NodeId rival) {
    const std::uint32_t slot = sc.slot_of[n];
    ApnSweepScratch::ProbeSlot& st = sc.slots[slot];
    Time* part = sc.partial.data() + slot * nprocs;
    const std::span<const Adj> pars = g.parents(n);
    if (st.stamp != commits) {
      std::fill(part, part + nprocs, Time{0});
      st.next = 0;
      st.stamp = commits;
      if (pars.empty()) tighten(n, st, part);
    }
    while (st.next < pars.size()) {
      const Adj& par = pars[st.order[st.next++]];
      ++sc.parent_sweeps;
      ns.probe_arrival_all(s.proc(par.node), par.cost, s.finish(par.node),
                           sc.arrival);
      for (std::size_t p = 0; p < nprocs; ++p)
        part[p] = std::max(part[p], sc.arrival[p]);
      tighten(n, st, part);
      if (st.next < pars.size() && rival != kNoNode && beats(rival, n))
        return false;
    }
    return true;
  };

  for (NodeId n : ready.ready()) admit(n);

  while (!ready.empty()) {
    ws.deadline().poll();
    NodeId best;
    while (true) {
      ++sc.picks;
      best = kNoNode;
      NodeId second = kNoNode;
      for (NodeId m : ready.ready()) {
        if (best == kNoNode || beats(m, best)) {
          second = best;
          best = m;
        } else if (second == kNoNode || beats(m, second)) {
          second = m;
        }
      }
      const ApnSweepScratch::ProbeSlot& st = sc.slots[sc.slot_of[best]];
      if (st.stamp == commits && st.next == g.num_parents(best)) break;
      if (advance(best, second) &&
          (second == kNoNode || !beats(second, best)))
        break;
    }
    const std::uint32_t slot = sc.slot_of[best];
    apn_commit_node(ns, best, sc.slots[slot].proc, /*insertion=*/false);
    sc.free_slots.push_back(slot);
    ++commits;
    for (NodeId c : ready.mark_scheduled(best)) admit(c);
  }
  return ns;
}

}  // namespace tgs
