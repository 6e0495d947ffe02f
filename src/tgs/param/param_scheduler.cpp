#include "tgs/param/param_scheduler.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "tgs/bnp/bnp_common.h"
#include "tgs/graph/attributes.h"
#include "tgs/list/ready_list.h"
#include "tgs/map/cluster_map.h"
#include "tgs/unc/clustering.h"

namespace tgs {

namespace {

// Lazy min-heap comparator (std::push_heap keeps the comparator-largest
// element at the front, so a "greater" ordering gives a min-heap). The key
// chain ends in rank, a per-node-unique permutation, so heap pops
// reproduce the linear argmin scan they replace bit-for-bit.
struct ListPickCmp {
  bool operator()(const ParamScratch::ListPick& a,
                  const ParamScratch::ListPick& b) const {
    if (a.primary != b.primary) return a.primary > b.primary;
    return a.rank > b.rank;
  }
};
// One run of the list phase. Holds the shared state so the ready policies
// and the hole-filling pass read like the original standalone algorithms
// they generalize (bnp/hlfet.cpp, bnp/ish.cpp, bnp/etf.cpp, ... at PR 7).
class ListPhase {
 public:
  ListPhase(const ParamSpec& spec, const TaskGraph& g, const SchedOptions& opt,
            SchedWorkspace& ws, ParamScratch& ps)
      : spec_(spec),
        g_(g),
        ws_(ws),
        ps_(ps),
        pair_(ws.pair_scratch()),
        clustered_(spec.cluster != ParamCluster::kNone),
        fit_(spec.insertion == ParamInsertion::kInsert),
        hole_(spec.insertion == ParamInsertion::kHole),
        dynamic_(spec.ready == ParamReady::kDynamic),
        sched_(g, clustered_ ? 0 : effective_procs(g, opt)),
        // A cluster map fixes every processor, so the scanner goes unused.
        scanner_(sched_, clustered_ ? 0 : effective_procs(g, opt), pair_),
        ready_(g) {
    pair_.bind_arrival(g.num_nodes());
  }

  Schedule run() {
    switch (spec_.ready) {
      case ParamReady::kStatic:
      case ParamReady::kDynamic:
        run_list();
        break;
      case ParamReady::kPairEtf:
      case ParamReady::kPairDls:
        run_pair();
        break;
    }
    return std::move(sched_);
  }

 private:
  // kStatic picks the highest-priority ready node (= smallest rank; rank
  // encodes the smallest-id tie-break). kDynamic orders by the frozen
  // arrival time max1 -- the earliest moment the node's data is available
  // anywhere -- with the metric rank as tie-break. Both keys freeze at
  // admission, so the pick is a lazy min-heap pop: each node carries one
  // entry, and entries whose node left the ready set another way (the
  // hole-filling pass) are discarded on pop. This replaces the O(ready)
  // per-step scan that dominated giant FFT-class graphs (ready width in
  // the thousands).
  void push_list(NodeId n) {
    ps_.list_heap.push_back(
        {dynamic_ ? pair_.arrival[n].max1 : 0, ps_.rank[n], n});
    std::push_heap(ps_.list_heap.begin(), ps_.list_heap.end(), ListPickCmp{});
  }

  NodeId pick_list() {
    std::vector<ParamScratch::ListPick>& h = ps_.list_heap;
    while (true) {
      std::pop_heap(h.begin(), h.end(), ListPickCmp{});
      const NodeId n = h.back().node;
      h.pop_back();
      if (ready_.is_ready(n)) return n;
    }
  }

  void run_list() {
    list_heap_live_ = true;
    ps_.list_heap.clear();
    admit_all();
    while (!ready_.empty()) {
      ws_.deadline().poll();
      const NodeId n = pick_list();
      const ProcChoice c = choice(n);
      place(n, c.proc, c.start);
    }
  }

  // ETF minimizes (EST, rank); DLS maximizes dl = key - EST with ties on
  // earlier start then smaller id (PairOrder). Append placement without a
  // cluster map gives each ready node's EST a closed form, so
  // AppendPairSelector picks the pair in a few heap operations per step
  // and no step visits the whole ready set (docs/perf.md, "BNP pair
  // selection"). Insertion gaps and a fixed cluster map break the closed
  // form: there each step scans the ready set, every node at its choice().
  void run_pair() {
    if (!fit_ && !clustered_) {
      AppendPairSelector& sel =
          append_sel_.emplace(scanner_, pair_order(), pair_);
      admit_all();
      while (!ready_.empty()) {
        ws_.deadline().poll();
        const NodeId n = sel.pick();
        const ProcChoice c = sel.best(n);
        place(n, c.proc, c.start);
      }
      return;
    }
    admit_all();
    while (!ready_.empty()) {
      ws_.deadline().poll();
      const NodeId n = scan_pick([&](NodeId m) { return choice(m).start; });
      const ProcChoice c = choice(n);
      place(n, c.proc, c.start);
    }
  }

  /// Processor and earliest start of ready node `m` under the run's
  /// placement: its cluster's processor under a cluster map, else the
  /// best over the scan window (ties: the smaller id).
  ProcChoice choice(NodeId m) const {
    if (!clustered_) return best_est_proc(scanner_, m, pair_.arrival[m], fit_);
    const ProcId p = ps_.assign[m];
    return {p, sched_.earliest_start_on(p, pair_.arrival[m].ready_on(p),
                                        g_.weight(m), fit_)};
  }

  PairOrder pair_order() const {
    return {ps_.key.data(), ps_.rank.data(),
            spec_.ready == ParamReady::kPairDls};
  }

  /// The ready node whose (node, est(node)) pair is best under PairOrder.
  template <class Est>
  NodeId scan_pick(Est est) const {
    const PairOrder order = pair_order();
    NodeId best_n = kNoNode;
    Time best_t = 0;
    for (NodeId m : ready_.ready()) {
      const Time t = est(m);
      if (best_n == kNoNode || order.better(m, t, best_n, best_t)) {
        best_n = m;
        best_t = t;
      }
    }
    return best_n;
  }

  /// Commit `n` on `p` at `start`, maintain every incremental structure,
  /// and run the hole-filling pass when the insertion policy asks for it.
  void place(NodeId n, ProcId p, Time start) {
    // End of the processor's busy prefix before the placement == where the
    // idle hole (if any) begins once n lands at `start`.
    const Time hole_from = hole_ ? sched_.earliest_start_on(p, 0, 0, false) : 0;
    sched_.place(n, p, start);
    if (!clustered_) scanner_.note_placement(p);
    note_placed(n, p);
    if (hole_) fill_hole(p, hole_from, start);
  }

  /// Bookkeeping shared by list placements and hole fills: the selector
  /// sees the placement, then the children it made ready.
  void note_placed(NodeId n, ProcId p) {
    if (append_sel_) append_sel_->node_placed(p);
    for (NodeId c : ready_.mark_scheduled(n)) admit(c);
  }

  void admit_all() {
    for (NodeId n : ready_.ready()) admit(n);
  }

  /// A node that just became ready freezes its arrival summary (the pair
  /// selector freezes it itself) and enters the policy's incremental
  /// state: the pair selector, or the list heap.
  void admit(NodeId n) {
    if (append_sel_) {
      append_sel_->node_ready(n);
    } else {
      pair_.arrival[n] = arrival_of(sched_, n);
      if (list_heap_live_) push_list(n);
    }
  }

  /// ISH-style back-filling of [gap_from, gap_to) on `proc`, generalized
  /// to the run's metric: fill with the highest-priority ready task that
  /// fits entirely and (without a cluster map) would not have started
  /// strictly earlier on any other processor. Both tests read the frozen
  /// arrival in O(1): the data-ready time on `proc` and the append EST.
  void fill_hole(ProcId proc, Time gap_from, Time gap_to) {
    while (gap_from < gap_to && !ready_.empty()) {
      ws_.deadline().poll();
      NodeId best_fill = kNoNode;
      Time best_start = 0;
      for (NodeId m : ready_.ready()) {
        if (clustered_ && ps_.assign[m] != proc) continue;
        const ArrivalInfo& a = pair_.arrival[m];
        const Time st = std::max(a.ready_on(proc), gap_from);
        if (st + g_.weight(m) > gap_to) continue;
        // The hole is not this task's best slot.
        if (!clustered_ && append_est(scanner_, a) < st) continue;
        if (best_fill == kNoNode || ps_.rank[m] < ps_.rank[best_fill]) {
          best_fill = m;
          best_start = st;
        }
      }
      if (best_fill == kNoNode) break;
      sched_.place(best_fill, proc, best_start);
      note_placed(best_fill, proc);
      gap_from = best_start + g_.weight(best_fill);
    }
  }

  const ParamSpec& spec_;
  const TaskGraph& g_;
  SchedWorkspace& ws_;
  ParamScratch& ps_;
  PairScratch& pair_;  // frozen arrivals and the scanner's indexes
  const bool clustered_;
  const bool fit_;
  const bool hole_;
  const bool dynamic_;
  bool list_heap_live_ = false;  // run_list admissions feed ps_.list_heap
  std::optional<AppendPairSelector> append_sel_;  // pair, append/hole
  Schedule sched_;
  ProcScanner scanner_;
  ReadyList ready_;
};

/// Fill `ps.key` / `ps.rank` for `metric` on the graph bound to `attrs`.
/// Ranks are a permutation encoding (key desc, id asc) -- lexicographic
/// ALAP-list order for kAlapList.
void compute_param_metric(ParamMetric metric, GraphAttributeCache& attrs,
                          ParamScratch& ps) {
  if (attrs.graph() == nullptr)
    throw std::logic_error("compute_param_metric: no graph bound");
  const TaskGraph& g = *attrs.graph();
  const NodeId v = g.num_nodes();
  ps.key.assign(v, 0);

  switch (metric) {
    case ParamMetric::kSL: {
      const std::vector<Time>& sl = attrs.static_levels();
      for (NodeId n = 0; n < v; ++n) ps.key[n] = sl[n];
      break;
    }
    case ParamMetric::kBL: {
      const std::vector<Time>& bl = attrs.b_levels();
      for (NodeId n = 0; n < v; ++n) ps.key[n] = bl[n];
      break;
    }
    case ParamMetric::kTL: {
      // Smaller t-level = earlier possible start = more urgent.
      const std::vector<Time>& tl = attrs.t_levels();
      for (NodeId n = 0; n < v; ++n) ps.key[n] = -tl[n];
      break;
    }
    case ParamMetric::kALAP:
    case ParamMetric::kAlapList: {
      // Smaller ALAP = less slack = more urgent. kAlapList shares the
      // scalar key (its refinement only affects the rank below).
      const std::vector<Time>& alap = attrs.alap_times();
      for (NodeId n = 0; n < v; ++n) ps.key[n] = -alap[n];
      break;
    }
    case ParamMetric::kBLminusTL: {
      const std::vector<Time>& bl = attrs.b_levels();
      const std::vector<Time>& tl = attrs.t_levels();
      for (NodeId n = 0; n < v; ++n) ps.key[n] = bl[n] - tl[n];
      break;
    }
    case ParamMetric::kCP: {
      // Critical-path members strictly outrank non-members (a node is on a
      // CP iff tl + bl == CP length); inside each group, b-level decides.
      // bl <= cp for every node, and bl == cp implies membership, so the
      // +cp bonus cannot collide across the groups.
      const std::vector<Time>& bl = attrs.b_levels();
      const std::vector<Time>& tl = attrs.t_levels();
      const Time cp = attrs.critical_path_length();
      for (NodeId n = 0; n < v; ++n)
        ps.key[n] = bl[n] + (tl[n] + bl[n] == cp ? cp : 0);
      break;
    }
  }

  ps.order.resize(v);
  std::iota(ps.order.begin(), ps.order.end(), NodeId{0});
  if (metric == ParamMetric::kAlapList) {
    // MCP's lexicographic priority: [alap(n), sorted alaps of children],
    // stored rank-compressed. Dense ALAP ranks compare exactly like the
    // Time values they stand for (x < y iff rank(x) < rank(y)), so one
    // flat uint32 arena of size v + e replaces the per-node
    // vector<vector<Time>> -- v heap allocations and 16 bytes per element
    // -- that profiled as the giant-tier setup bottleneck.
    const std::vector<Time>& alap = attrs.alap_times();
    std::vector<NodeId>& by = ps.alap_sorted;
    by.resize(v);
    std::iota(by.begin(), by.end(), NodeId{0});
    std::sort(by.begin(), by.end(),
              [&](NodeId a, NodeId b) { return alap[a] < alap[b]; });
    ps.alap_rank.resize(v);
    std::uint32_t r = 0;
    for (NodeId i = 0; i < v; ++i) {
      if (i > 0 && alap[by[i]] != alap[by[i - 1]]) ++r;
      ps.alap_rank[by[i]] = r;
    }
    ps.alap_off.resize(static_cast<std::size_t>(v) + 1);
    ps.alap_off[0] = 0;
    for (NodeId n = 0; n < v; ++n)
      ps.alap_off[n + 1] = ps.alap_off[n] + 1 + g.num_children(n);
    ps.alap_arena.resize(ps.alap_off[v]);
    for (NodeId n = 0; n < v; ++n) {
      std::size_t pos = ps.alap_off[n];
      ps.alap_arena[pos++] = ps.alap_rank[n];
      for (const Adj& c : g.children(n))
        ps.alap_arena[pos++] = ps.alap_rank[c.node];
      std::sort(ps.alap_arena.begin() + ps.alap_off[n] + 1,
                ps.alap_arena.begin() + ps.alap_off[n + 1]);
    }
    const std::uint32_t* arena = ps.alap_arena.data();
    const std::size_t* off = ps.alap_off.data();
    std::sort(ps.order.begin(), ps.order.end(), [&](NodeId a, NodeId b) {
      const std::uint32_t* pa = arena + off[a];
      const std::uint32_t* pb = arena + off[b];
      const std::size_t la = off[a + 1] - off[a];
      const std::size_t lb = off[b + 1] - off[b];
      const std::size_t m = la < lb ? la : lb;
      for (std::size_t i = 0; i < m; ++i)
        if (pa[i] != pb[i]) return pa[i] < pb[i];
      if (la != lb) return la < lb;  // equal prefix: shorter list first
      return a < b;
    });
  } else {
    std::sort(ps.order.begin(), ps.order.end(), [&](NodeId a, NodeId b) {
      if (ps.key[a] != ps.key[b]) return ps.key[a] > ps.key[b];
      return a < b;
    });
  }
  ps.rank.resize(v);
  for (NodeId i = 0; i < v; ++i) ps.rank[ps.order[i]] = static_cast<int>(i);
}

}  // namespace

Schedule param_schedule(const ParamSpec& spec, const TaskGraph& g,
                        const SchedOptions& opt, SchedWorkspace& ws) {
  ParamScratch& ps = ws.param_scratch();
  compute_param_metric(spec.metric, ws.attrs(), ps);

  if (spec.cluster != ParamCluster::kNone) {
    switch (spec.cluster) {
      case ParamCluster::kEz:
        ps.assign = ez_clusters(g, ws);
        break;
      case ParamCluster::kLc:
        ps.assign = lc_clusters(g);
        break;
      case ParamCluster::kDsc:
        ps.assign = dsc_clusters(g, ws);
        break;
      case ParamCluster::kNone:
        break;
    }
    if (opt.num_procs > 0) {
      // The UNC cores ignore machine bounds; honor them by folding the
      // clusters LPT-style (Yang's RCP rule) when there are too many.
      ProcId max_c = 0;
      for (ProcId c : ps.assign) max_c = std::max(max_c, c);
      if (max_c + 1 > opt.num_procs)
        ps.assign = rcp_cluster_assignment(g, ps.assign, opt.num_procs);
    }
  }

  ListPhase phase(spec, g, opt, ws, ps);
  return phase.run();
}

}  // namespace tgs
