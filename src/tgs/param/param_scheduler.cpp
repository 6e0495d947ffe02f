#include "tgs/param/param_scheduler.h"

#include <algorithm>
#include <numeric>
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
        clustered_(spec.cluster != ParamCluster::kNone),
        fit_(spec.insertion == ParamInsertion::kInsert),
        hole_(spec.insertion == ParamInsertion::kHole),
        sched_(g, clustered_ ? 0 : effective_procs(g, opt)),
        scanner_(effective_procs(g, opt)),
        ready_(g) {}

  Schedule run() {
    switch (spec_.ready) {
      case ParamReady::kStatic:
        run_list(/*dynamic=*/false);
        break;
      case ParamReady::kDynamic:
        init_arrivals();
        run_list(/*dynamic=*/true);
        break;
      case ParamReady::kPairEtf:
      case ParamReady::kPairDls:
        if (clustered_)
          run_pair_clustered();
        else
          run_pair_selector();
        break;
    }
    return std::move(sched_);
  }

 private:
  // kStatic picks the highest-priority ready node (= smallest rank; rank
  // encodes the smallest-id tie-break). kDynamic orders by the frozen
  // arrival time -- the earliest moment the node's data is available
  // anywhere -- with the metric rank as tie-break. Both keys freeze at
  // admission, so the pick is a lazy min-heap pop: each node carries one
  // entry, and entries whose node left the ready set another way (the
  // hole-filling pass) are discarded on pop. This replaces the O(ready)
  // per-step scan that dominated giant FFT-class graphs (ready width in
  // the thousands).
  void push_list(NodeId n, bool dynamic) {
    ps_.list_heap.push_back({dynamic ? ps_.arrival[n] : 0, ps_.rank[n], n});
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

  void run_list(bool dynamic) {
    list_heap_live_ = true;
    ps_.list_heap.clear();
    for (NodeId n : ready_.ready()) push_list(n, dynamic);
    while (!ready_.empty()) {
      ws_.deadline().poll();
      const NodeId n = pick_list();
      ProcId p;
      Time start;
      if (clustered_) {
        p = ps_.assign[n];
        start = sched_.est(n, p, fit_);
      } else {
        const ProcChoice c = best_est_proc(sched_, n, scanner_, fit_);
        p = c.proc;
        start = c.start;
      }
      place(n, p, start, nullptr, dynamic);
    }
  }

  // ETF minimizes (EST, rank); DLS maximizes dl = key - EST with ties on
  // earlier start then smaller id. The argmin stays a linear scan over the
  // ready set on purpose: a lazy heap over the cached pairs was tried and
  // measured SLOWER at giant scale (docs/perf.md, PR 9) -- wide symmetric
  // graphs funnel thousands of cached bests onto one processor, so each
  // placement re-keys O(ready) entries and the heap turns one O(ready)
  // scan into O(ready log ready) churn. The selector's bucket rescoring
  // already bounds the real per-placement work.
  void run_pair_selector() {
    IncrementalPairSelector sel(sched_, scanner_, fit_, ws_.pair_scratch());
    for (NodeId n : ready_.ready()) sel.node_ready(n);
    const bool etf = spec_.ready == ParamReady::kPairEtf;
    while (!ready_.empty()) {
      ws_.deadline().poll();
      NodeId best_n = kNoNode;
      Time best_t = 0;
      Time best_dl = 0;
      for (NodeId m : ready_.ready()) {
        const Time t = sel.best(m).start;
        if (etf) {
          // Globally earliest start; ties -> higher metric priority.
          if (best_n == kNoNode || t < best_t ||
              (t == best_t && ps_.rank[m] < ps_.rank[best_n])) {
            best_n = m;
            best_t = t;
          }
        } else {
          // Largest dynamic level key - EST; ties -> earlier start, then
          // smaller node id (the original DLS tie chain).
          const Time dl = ps_.key[m] - t;
          if (best_n == kNoNode || dl > best_dl ||
              (dl == best_dl &&
               (t < best_t || (t == best_t && m < best_n)))) {
            best_n = m;
            best_t = t;
            best_dl = dl;
          }
        }
      }
      place(best_n, sel.best(best_n).proc, best_t, &sel, false);
    }
  }

  // Pair policies under a fixed cluster map degenerate to a per-step scan
  // of EST on each node's forced processor (the selector's invariant
  // assumes free processor choice, so it does not apply here).
  void run_pair_clustered() {
    const bool etf = spec_.ready == ParamReady::kPairEtf;
    while (!ready_.empty()) {
      ws_.deadline().poll();
      NodeId best_n = kNoNode;
      Time best_t = 0;
      Time best_dl = 0;
      for (NodeId m : ready_.ready()) {
        const Time t = sched_.est(m, ps_.assign[m], fit_);
        if (etf) {
          if (best_n == kNoNode || t < best_t ||
              (t == best_t && ps_.rank[m] < ps_.rank[best_n])) {
            best_n = m;
            best_t = t;
          }
        } else {
          const Time dl = ps_.key[m] - t;
          if (best_n == kNoNode || dl > best_dl ||
              (dl == best_dl &&
               (t < best_t || (t == best_t && m < best_n)))) {
            best_n = m;
            best_t = t;
            best_dl = dl;
          }
        }
      }
      place(best_n, ps_.assign[best_n], best_t, nullptr, false);
    }
  }

  /// Commit `n` on `p` at `start`, maintain every incremental structure,
  /// and run the hole-filling pass when the insertion policy asks for it.
  void place(NodeId n, ProcId p, Time start, IncrementalPairSelector* sel,
             bool dynamic) {
    // End of the processor's busy prefix before the placement == where the
    // idle hole (if any) begins once n lands at `start`.
    const Time hole_from = hole_ ? sched_.earliest_start_on(p, 0, 0, false) : 0;
    sched_.place(n, p, start);
    if (!clustered_) scanner_.note_placement(p);
    if (sel != nullptr) sel->node_placed(n, p);
    ready_.mark_scheduled(n);
    admit_children(n, sel, dynamic);
    if (hole_) fill_hole(p, hole_from, start, sel, dynamic);
  }

  /// Children of `n` that just became ready enter the policy's incremental
  /// state: the pair selector's tracked set, or the frozen arrival times
  /// of the dynamic list policy.
  void admit_children(NodeId n, IncrementalPairSelector* sel, bool dynamic) {
    if (sel == nullptr && !dynamic && !list_heap_live_) return;
    for (const Adj& c : g_.children(n)) {
      if (!ready_.is_ready(c.node)) continue;
      if (sel != nullptr) {
        sel->node_ready(c.node);
      } else {
        if (dynamic) {
          Time arr = 0;
          for (const Adj& par : g_.parents(c.node))
            arr = std::max(arr, sched_.finish(par.node) + par.cost);
          ps_.arrival[c.node] = arr;
        }
        push_list(c.node, dynamic);
      }
    }
  }

  void init_arrivals() {
    ps_.arrival.assign(g_.num_nodes(), 0);  // entry nodes: data at t=0
  }

  /// ISH-style back-filling of [gap_from, gap_to) on `proc`, generalized
  /// to the run's metric: fill with the highest-priority ready task that
  /// fits entirely and (without a cluster map) would not have started
  /// strictly earlier on any other processor.
  void fill_hole(ProcId proc, Time gap_from, Time gap_to,
                 IncrementalPairSelector* sel, bool dynamic) {
    while (gap_from < gap_to && !ready_.empty()) {
      ws_.deadline().poll();
      NodeId best_fill = kNoNode;
      Time best_start = 0;
      for (NodeId m : ready_.ready()) {
        if (clustered_ && ps_.assign[m] != proc) continue;
        const Time st = std::max(sched_.data_ready(m, proc), gap_from);
        if (st + g_.weight(m) > gap_to) continue;
        if (!clustered_) {
          const Time alt =
              sel != nullptr ? sel->best(m).start
                             : best_est_proc(sched_, m, scanner_, false).start;
          if (alt < st) continue;  // the hole is not this task's best slot
        }
        if (best_fill == kNoNode || ps_.rank[m] < ps_.rank[best_fill]) {
          best_fill = m;
          best_start = st;
        }
      }
      if (best_fill == kNoNode) break;
      sched_.place(best_fill, proc, best_start);
      if (sel != nullptr) sel->node_placed(best_fill, proc);
      ready_.mark_scheduled(best_fill);
      admit_children(best_fill, sel, dynamic);
      gap_from = best_start + g_.weight(best_fill);
    }
  }

  const ParamSpec& spec_;
  const TaskGraph& g_;
  SchedWorkspace& ws_;
  ParamScratch& ps_;
  const bool clustered_;
  const bool fit_;
  const bool hole_;
  bool list_heap_live_ = false;  // run_list admissions feed ps_.list_heap
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

ParamScheduler::ParamScheduler(const ParamSpec& spec, std::string name)
    : spec_(spec), name_(name.empty() ? spec.to_string() : std::move(name)) {}

Schedule ParamScheduler::do_run(const TaskGraph& g, const SchedOptions& opt,
                                SchedWorkspace& ws) const {
  ParamScratch& ps = ws.param_scratch();
  compute_param_metric(spec_.metric, ws.attrs(), ps);

  if (spec_.cluster != ParamCluster::kNone) {
    switch (spec_.cluster) {
      case ParamCluster::kEz:
        ps.assign = ez_clusters(g, ws.deadline());
        break;
      case ParamCluster::kLc:
        ps.assign = lc_clusters(g);
        break;
      case ParamCluster::kDsc:
        ps.assign = dsc_clusters(g);
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

  ListPhase phase(spec_, g, opt, ws, ps);
  return phase.run();
}

}  // namespace tgs
