#include "tgs/bnp/bnp_common.h"

#include <stdexcept>

namespace tgs {

ProcScanner::ProcScanner(const Schedule& s, int limit, PairScratch& scratch)
    : sched_(&s), limit_(limit) {
  if (s.num_procs() < limit)
    throw std::logic_error("ProcScanner: schedule has fewer than limit procs");
  ends_.init(limit, scratch.proc_ends);
  scratch.proc_probes.assign(static_cast<std::size_t>(limit), ProbeSummary{});
  probes_ = scratch.proc_probes.data();
  counts_ = &scratch.insertion_scan;
}

ArrivalInfo arrival_of(const Schedule& s, NodeId n) {
  const TaskGraph& g = s.graph();
  ArrivalInfo a;
  for (const Adj& par : g.parents(n)) {
    const Time with_comm = s.finish(par.node) + par.cost;
    if (with_comm > a.max1) {
      a.max1 = with_comm;
      a.proc1 = s.proc(par.node);
    }
  }
  a.r1 = a.max1;
  if (a.proc1 == kNoProc) return a;
  // Second pass for r1 (needs the final proc1).
  a.r1 = 0;
  for (const Adj& par : g.parents(n)) {
    const Time ft = s.finish(par.node);
    a.r1 = std::max(a.r1, s.proc(par.node) == a.proc1 ? ft : ft + par.cost);
  }
  return a;
}

Time append_est(const ProcScanner& scanner, const ArrivalInfo& a) {
  // min_end() spans every processor, but it is the window's: a window
  // narrower than the limit holds a fresh processor, which ends at 0.
  const ProcEndIndex& ends = scanner.ends();
  const Time g = std::max(a.max1, ends.min_end());
  if (a.proc1 == kNoProc) return g;
  return std::min(g, std::max(a.r1, ends.end_of(a.proc1)));
}

ProcChoice best_est_proc(const ProcScanner& scanner, NodeId n,
                         const ArrivalInfo& a, bool insertion) {
  const Schedule& s = scanner.schedule();
  const ProcEndIndex& ends = scanner.ends();
  const Cost dur = s.graph().weight(n);
  const int count = scanner.scan_count();
  // Off proc1 the data is ready at max1, so no processor but proc1 starts
  // before max1, and the first processor idle by max1 starts exactly then.
  // When none is idle, the first one ending first starts at its end: under
  // append placement every other processor starts at its end time, and an
  // insertion fit never starts past it, so the answer is that end or
  // earlier either way. (With none idle the window holds no fresh
  // processor, so it spans every processor and min_end() is its own.)
  const int idle = ends.first_at_most(a.max1, count);
  const int q = idle >= 0 ? idle : ends.first_at_most(ends.min_end(), count);
  ProcChoice best{static_cast<ProcId>(q), idle >= 0 ? a.max1 : ends.end_of(q)};
  // proc1 exactly: its data-ready time r1 may undercut max1.
  const auto offer = [&best](ProcId p, Time t) {
    if (t < best.start || (t == best.start && p < best.proc)) best = {p, t};
  };
  if (a.proc1 != kNoProc)
    offer(a.proc1, s.earliest_start_on(a.proc1, a.r1, dur, insertion));
  if (!insertion) return best;
  // Insertion: a processor busy past max1 may hold a gap at or after max1,
  // so its start lies in [max1, end]. Only processors below the idle one
  // can tie or win, and once max1 cannot beat the best (start, id) in id
  // order no later one can either. A processor whose summary rules out
  // every gap starts at its end, which never beats the best in hand (the
  // idle processor's max1, or the smallest end at a smaller id), so its
  // timeline is not touched; the others are probed only up to the best
  // start, as a fit past it cannot win.
  const int stop = idle >= 0 ? idle : count;
  ProcId p = 0;
  std::uint64_t probes = 0;
  for (; p < stop; ++p) {
    if (a.max1 > best.start || (a.max1 == best.start && p > best.proc)) break;
    if (p == a.proc1 || scanner.probe(p).appends(a.max1, dur)) continue;
    ++probes;
    offer(p, s.timeline(p).earliest_fit(a.max1, dur, true, best.start));
  }
  InsertionScanCounts& counts = scanner.scan_counts();
  counts.visits += static_cast<std::uint64_t>(p);
  counts.probes += probes;
  return best;
}

// ---------------------------------------------------- AppendPairSelector --

// std::push_heap keeps the comparator-largest element on top, so "a < b"
// means b is the better candidate. `key` is the frozen arrival field that
// holds each node's start in this heap; nullptr marks a saturated heap,
// whose members share one.
struct AppendPairSelector::HeapCmp {
  const PairOrder& order;
  const ArrivalInfo* arr;
  Key key;
  bool operator()(NodeId a, NodeId b) const {
    if (key == nullptr) return order.better(b, 0, a, 0);
    return order.better(b, arr[b].*key, a, arr[a].*key);
  }
};

AppendPairSelector::AppendPairSelector(const ProcScanner& scanner,
                                       const PairOrder& order,
                                       PairScratch& scratch)
    : sched_(&scanner.schedule()),
      scanner_(&scanner),
      order_(order),
      scratch_(&scratch) {
  const int limit = scanner.limit();
  scratch.bind_arrival(sched_->graph().num_nodes());
  if (scratch.sat_a.size() < static_cast<std::size_t>(limit))
    scratch.sat_a.resize(static_cast<std::size_t>(limit));
  scratch.pend_a.clear();
  scratch.pend_g.clear();
  scratch.sat_g.clear();
  for (int q = 0; q < limit; ++q) scratch.sat_a[q].clear();
  scratch.tour.assign(static_cast<std::size_t>(scanner.ends().base()) * 2, -1);
}

void AppendPairSelector::push(std::vector<NodeId>& heap, Key key, NodeId m) {
  heap.push_back(m);
  std::push_heap(heap.begin(), heap.end(),
                 HeapCmp{order_, scratch_->arrival.data(), key});
}

void AppendPairSelector::pop(std::vector<NodeId>& heap, Key key) {
  std::pop_heap(heap.begin(), heap.end(),
                HeapCmp{order_, scratch_->arrival.data(), key});
  heap.pop_back();
}

void AppendPairSelector::push_sat_a(NodeId m) {
  const ProcId q = arrival(m).proc1;
  std::vector<NodeId>& heap = scratch_->sat_a[q];
  push(heap, nullptr, m);
  if (heap.front() == m) refresh(q);
}

int AppendPairSelector::winner(int p, int q) const {
  if (p < 0) return q;
  if (q < 0) return p;
  const PairScratch& sc = *scratch_;
  return order_.better(sc.sat_a[p].front(), end_of(p), sc.sat_a[q].front(),
                       end_of(q))
             ? p
             : q;
}

void AppendPairSelector::refresh(ProcId q) {
  std::vector<int>& t = scratch_->tour;
  int i = scanner_->ends().base() + q;
  t[i] = scratch_->sat_a[q].empty() ? -1 : q;
  for (i /= 2; i >= 1; i /= 2) t[i] = winner(t[2 * i], t[2 * i + 1]);
}

void AppendPairSelector::node_ready(NodeId n) {
  PairScratch& sc = *scratch_;
  const ArrivalInfo& a = sc.arrival[n] = arrival_of(*sched_, n);
  if (a.max1 > scanner_->ends().min_end())
    push(sc.pend_g, &ArrivalInfo::max1, n);
  else
    push(sc.sat_g, nullptr, n);
  // r1 <= max1 always; at equality A >= G (end[q] >= E), so the A term
  // can never be the smaller one and is not tracked. Without a proc1 there
  // is no A term, and r1 == max1.
  if (a.r1 == a.max1) return;
  if (a.r1 > end_of(a.proc1))
    push(sc.pend_a, &ArrivalInfo::r1, n);
  else
    push_sat_a(n);
}

void AppendPairSelector::node_placed(ProcId p) {
  // The scanner already holds p's new end; a hole fill leaves it in place,
  // and then the refresh recomputes the same winners.
  if (!scratch_->sat_a[p].empty()) refresh(p);
}

NodeId AppendPairSelector::pick() {
  PairScratch& sc = *scratch_;
  // Settle the pending tops: drop placed nodes, move saturated terms.
  while (!sc.pend_a.empty()) {
    const NodeId m = sc.pend_a.front();
    const bool live = !placed(m);
    if (live && arrival(m).r1 > end_of(arrival(m).proc1)) break;
    pop(sc.pend_a, &ArrivalInfo::r1);
    if (live) push_sat_a(m);
  }
  const Time e = scanner_->ends().min_end();
  while (!sc.pend_g.empty()) {
    const NodeId m = sc.pend_g.front();
    const bool live = !placed(m);
    if (live && arrival(m).max1 > e) break;
    pop(sc.pend_g, &ArrivalInfo::max1);
    if (live) push(sc.sat_g, nullptr, m);
  }
  while (!sc.sat_g.empty() && placed(sc.sat_g.front())) pop(sc.sat_g, nullptr);
  // A placed top hides nothing better beneath it (same start, heap order),
  // so pruning the tournament's winner until it is live suffices.
  while (sc.tour[1] >= 0 && placed(sc.sat_a[sc.tour[1]].front())) {
    const ProcId q = static_cast<ProcId>(sc.tour[1]);
    std::vector<NodeId>& heap = sc.sat_a[q];
    do pop(heap, nullptr);
    while (!heap.empty() && placed(heap.front()));
    refresh(q);
  }

  NodeId best = kNoNode;
  Time best_t = 0;
  const auto offer = [&](NodeId m, Time t) {
    if (best == kNoNode || order_.better(m, t, best, best_t)) {
      best = m;
      best_t = t;
    }
  };
  if (!sc.pend_a.empty())
    offer(sc.pend_a.front(), arrival(sc.pend_a.front()).r1);
  if (!sc.pend_g.empty())
    offer(sc.pend_g.front(), arrival(sc.pend_g.front()).max1);
  if (!sc.sat_g.empty()) offer(sc.sat_g.front(), e);
  if (const int q = sc.tour[1]; q >= 0)
    offer(sc.sat_a[q].front(), end_of(static_cast<ProcId>(q)));
  return best;
}

ProcChoice AppendPairSelector::best(NodeId n) const {
  return best_est_proc(*scanner_, n, arrival(n), /*insertion=*/false);
}

}  // namespace tgs
