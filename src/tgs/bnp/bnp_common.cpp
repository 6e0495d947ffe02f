#include "tgs/bnp/bnp_common.h"

namespace tgs {

void compute_arrival_into(const Schedule& s, NodeId n, ArrivalInfo& info) {
  const TaskGraph& g = s.graph();
  info.max1 = 0;
  info.proc1 = kNoProc;
  info.max2 = 0;
  info.local_ft.clear();
  for (const Adj& par : g.parents(n)) {
    const ProcId q = s.proc(par.node);
    const Time ft = s.finish(par.node);
    const Time with_comm = ft + par.cost;
    if (with_comm > info.max1) {
      info.max1 = with_comm;
      info.proc1 = q;
    }
    // local finish per processor
    auto it = std::lower_bound(
        info.local_ft.begin(), info.local_ft.end(), q,
        [](const std::pair<ProcId, Time>& e, ProcId pid) { return e.first < pid; });
    if (it != info.local_ft.end() && it->first == q) {
      it->second = std::max(it->second, ft);
    } else {
      info.local_ft.insert(it, {q, ft});
    }
  }
  // Second pass for max2 (needs final proc1).
  for (const Adj& par : g.parents(n)) {
    if (s.proc(par.node) == info.proc1) continue;
    info.max2 = std::max(info.max2, s.finish(par.node) + par.cost);
  }
}

ProcChoice best_est_proc(const Schedule& s, NodeId n, const ProcScanner& scanner,
                         bool insertion, ArrivalInfo& scratch) {
  compute_arrival_into(s, n, scratch);
  const Cost dur = s.graph().weight(n);
  ProcChoice best{0, kTimeInf};
  const int count = scanner.scan_count();
  for (ProcId p = 0; p < count; ++p) {
    const Time t = s.earliest_start_on(p, scratch.ready_on(p), dur, insertion);
    if (t < best.start) best = {p, t};
  }
  return best;
}

// ---------------------------------------------------- AppendPairSelector --

// std::push_heap keeps the comparator-largest element on top, so "a < b"
// means b is the better candidate. `value` holds each node's start in
// this heap; nullptr marks a saturated heap, whose members share one.
struct AppendPairSelector::HeapCmp {
  const PairOrder& order;
  const Time* value;
  bool operator()(NodeId a, NodeId b) const {
    if (value == nullptr) return order.better(b, 0, a, 0);
    return order.better(b, value[b], a, value[a]);
  }
};

AppendPairSelector::AppendPairSelector(const Schedule& s,
                                       const ProcScanner& scanner,
                                       const PairOrder& order,
                                       PairScratch& scratch)
    : sched_(&s), scanner_(&scanner), order_(order), scratch_(&scratch) {
  const int limit = scanner.limit();
  scratch.bind_append(s.graph().num_nodes(), static_cast<std::size_t>(limit));
  scratch.pend_a.clear();
  scratch.pend_g.clear();
  scratch.sat_g.clear();
  for (int q = 0; q < limit; ++q) scratch.sat_a[q].clear();
  index_.init(limit, scratch.seg);
  scratch.tour.assign(static_cast<std::size_t>(index_.base()) * 2, -1);
}

void AppendPairSelector::push(std::vector<NodeId>& heap, const Time* value,
                              NodeId m) {
  heap.push_back(m);
  std::push_heap(heap.begin(), heap.end(), HeapCmp{order_, value});
}

void AppendPairSelector::pop(std::vector<NodeId>& heap, const Time* value) {
  std::pop_heap(heap.begin(), heap.end(), HeapCmp{order_, value});
  heap.pop_back();
}

void AppendPairSelector::push_sat_a(NodeId m) {
  const ProcId q = scratch_->a_proc[m];
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
  int i = index_.base() + q;
  t[i] = scratch_->sat_a[q].empty() ? -1 : q;
  for (i /= 2; i >= 1; i /= 2) t[i] = winner(t[2 * i], t[2 * i + 1]);
}

void AppendPairSelector::node_ready(NodeId n) {
  PairScratch& sc = *scratch_;
  ArrivalInfo& arr = sc.probe;
  compute_arrival_into(*sched_, n, arr);
  sc.g_ready[n] = arr.max1;
  sc.a_proc[n] = arr.proc1;
  if (arr.max1 > index_.min_end())
    push(sc.pend_g, sc.g_ready.data(), n);
  else
    push(sc.sat_g, nullptr, n);
  if (arr.proc1 == kNoProc) return;
  sc.a_ready[n] = arr.ready_on(arr.proc1);
  // r1 <= max1 always; at equality A >= G (end[q] >= E), so the A term
  // can never be the smaller one and is not tracked.
  if (sc.a_ready[n] == arr.max1) return;
  if (sc.a_ready[n] > end_of(arr.proc1))
    push(sc.pend_a, sc.a_ready.data(), n);
  else
    push_sat_a(n);
}

void AppendPairSelector::node_placed(ProcId p) {
  const Time end = sched_->timeline(p).end_time();
  if (end == end_of(p)) return;  // a hole fill leaves the end in place
  index_.set(p, end);
  if (!scratch_->sat_a[p].empty()) refresh(p);
}

NodeId AppendPairSelector::pick() {
  PairScratch& sc = *scratch_;
  // Settle the pending tops: drop placed nodes, move saturated terms.
  while (!sc.pend_a.empty()) {
    const NodeId m = sc.pend_a.front();
    const bool live = !placed(m);
    if (live && sc.a_ready[m] > end_of(sc.a_proc[m])) break;
    pop(sc.pend_a, sc.a_ready.data());
    if (live) push_sat_a(m);
  }
  const Time e = index_.min_end();
  while (!sc.pend_g.empty()) {
    const NodeId m = sc.pend_g.front();
    const bool live = !placed(m);
    if (live && sc.g_ready[m] > e) break;
    pop(sc.pend_g, sc.g_ready.data());
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
  if (!sc.pend_a.empty()) offer(sc.pend_a.front(), sc.a_ready[sc.pend_a.front()]);
  if (!sc.pend_g.empty()) offer(sc.pend_g.front(), sc.g_ready[sc.pend_g.front()]);
  if (!sc.sat_g.empty()) offer(sc.sat_g.front(), e);
  if (const int q = sc.tour[1]; q >= 0)
    offer(sc.sat_a[q].front(), end_of(static_cast<ProcId>(q)));
  return best;
}

Time AppendPairSelector::est(NodeId n) const {
  const PairScratch& sc = *scratch_;
  const Time g = std::max(sc.g_ready[n], index_.min_end());
  if (sc.a_proc[n] == kNoProc) return g;
  return std::min(g, std::max(sc.a_ready[n], end_of(sc.a_proc[n])));
}

ProcChoice AppendPairSelector::best(NodeId n) const {
  const PairScratch& sc = *scratch_;
  const int count = scanner_->scan_count();
  // Candidate 1: proc1, the only processor whose data-ready time can
  // undercut max1.
  ProcChoice pc{kNoProc, kTimeInf};
  if (sc.a_proc[n] != kNoProc)
    pc = {sc.a_proc[n], std::max(sc.a_ready[n], end_of(sc.a_proc[n]))};
  // Candidate 2: best of the generic EST max(max1, end[p]). For proc1 the
  // generic value only over-estimates, so including it is harmless
  // (candidate 1 wins any such tie at the same processor).
  const Time max1 = sc.g_ready[n];
  ProcChoice gen;
  if (const int idle = index_.first_at_most(max1, count); idle >= 0) {
    gen = {static_cast<ProcId>(idle), max1};
  } else {
    const int p = index_.min_end_proc(count);
    gen = {static_cast<ProcId>(p), end_of(p)};
  }
  if (pc.proc == kNoProc || gen.start < pc.start ||
      (gen.start == pc.start && gen.proc < pc.proc))
    pc = gen;
  return pc;
}

}  // namespace tgs
