// Shared machinery of the BNP (bounded number of processors) list
// schedulers, and the body of LAST. Four concerns live here:
//
//  * ProcScanner -- keeps processor usage dense (a new processor is only
//    considered once all lower-numbered ones hold work), which both bounds
//    the scan and makes processor choice deterministic, and indexes the
//    processors' end times so a choice need not visit every processor.
//  * ArrivalInfo -- O(1) data-ready queries per (node, processor) pair.
//    Once a node is ready, all its parents are placed and never move, and
//    edge costs are >= 0, so the node's data is ready at one time max1 on
//    every processor but one, proc1, where it is ready at r1 <= max1.
//  * best_est_proc -- the processor a node starts earliest on (ties: the
//    smaller id), exact, for append and insertion placement, in
//    O(log procs) plus a scan of only the processors busy past max1 that
//    could still tie or win; a processor's timeline is probed only when
//    its ProbeSummary leaves a gap that can hold the node, and only up to
//    the best start in hand. InsertionScanCounts counts that scan's work.
//  * AppendPairSelector -- ETF/DLS (ready node, processor) pair
//    selection in closed form for append placement.
//
// ETF and DLS are the paper's slow BNP algorithms precisely because they
// re-evaluate every (ready node, processor) pair at every step; the
// selector removes that re-evaluation without changing a single schedule.
// Insertion placement keeps the per-step scan over the ready set, each
// node at its best_est_proc (param/param_scheduler.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tgs/sched/schedule.h"
#include "tgs/sched/scheduler.h"
#include "tgs/util/types.h"

namespace tgs {

/// Min segment tree over per-processor timeline end times. Append EST
/// against processor p is max(ready, end_time(p)), so "the best processor
/// for arrival time X" reduces to two ordered queries answered in
/// O(log P): the smallest-id processor already idle by X (its EST is
/// exactly X, and lower-id processors all end later), else the first one
/// idle by min_end(). Backed by a caller-owned buffer so reruns do not
/// allocate.
class ProcEndIndex {
 public:
  void init(int nprocs, std::vector<Time>& storage) {
    base_ = 1;
    while (base_ < nprocs) base_ <<= 1;
    seg_ = &storage;
    storage.assign(static_cast<std::size_t>(base_) * 2, kTimeInf);
    for (int p = 0; p < nprocs; ++p) storage[base_ + p] = 0;
    for (int i = base_ - 1; i >= 1; --i)
      storage[i] = std::min(storage[2 * i], storage[2 * i + 1]);
  }

  int base() const { return base_; }

  Time end_of(int p) const { return (*seg_)[base_ + p]; }

  /// Smallest end time over all processors.
  Time min_end() const { return (*seg_)[1]; }

  void set(int p, Time end) {
    std::vector<Time>& s = *seg_;
    int i = base_ + p;
    s[i] = end;
    for (i /= 2; i >= 1; i /= 2) s[i] = std::min(s[2 * i], s[2 * i + 1]);
  }

  /// Smallest p in [0, count) with end_of(p) <= x; -1 if none.
  int first_at_most(Time x, int count) const {
    return find_at_most(1, 0, base_, x, count);
  }

 private:
  int find_at_most(int node, int lo, int hi, Time x, int count) const {
    if (lo >= count || (*seg_)[node] > x) return -1;
    if (hi - lo == 1) return lo;
    const int mid = (lo + hi) / 2;
    const int left = find_at_most(2 * node, lo, mid, x, count);
    if (left >= 0) return left;
    return find_at_most(2 * node + 1, mid, hi, x, count);
  }

  int base_ = 1;
  std::vector<Time>* seg_ = nullptr;
};

/// What an insertion probe needs to know of a processor before it touches
/// the processor's timeline: Timeline::max_gap and last_gap_end, copied
/// into one flat array so the scan over processors stays in cache.
struct ProbeSummary {
  Time max_gap = 0;
  Time last_gap_end = 0;

  /// True when an insertion fit of `dur` > 0 (task weights are positive)
  /// at or after `ready` is the timeline's end: every gap is too small or
  /// ends too early (Timeline::earliest_fit's exits).
  bool appends(Time ready, Cost dur) const {
    return max_gap < dur || ready + dur > last_gap_end;
  }
};

/// Work counters of best_est_proc's insertion scan, accumulated over runs
/// in PairScratch::insertion_scan (reset them to measure): the processors
/// the scan visits below the idle one, and the timeline probes among them,
/// one earliest_fit each. A visit that probes nothing is proc1, probed
/// before the scan, or a processor its ProbeSummary rules out.
struct InsertionScanCounts {
  std::uint64_t visits = 0;
  std::uint64_t probes = 0;
};

struct PairScratch;

/// Tracks how many processors hold at least one task, assuming algorithms
/// always pick the lowest-numbered empty processor when opening a new one,
/// and keeps a ProcEndIndex of every processor's timeline end plus every
/// processor's ProbeSummary.
class ProcScanner {
 public:
  /// `s` must hold at least `limit` timelines and have nothing placed;
  /// `scratch` backs the end-time index and the probe summaries. Both must
  /// outlive the scanner.
  ProcScanner(const Schedule& s, int limit, PairScratch& scratch);

  /// Number of processors worth scanning: every used one plus one fresh,
  /// capped by the machine size.
  int scan_count() const { return std::min(limit_, used_ + 1); }

  int limit() const { return limit_; }
  int used() const { return used_; }
  const Schedule& schedule() const { return *sched_; }
  const ProcEndIndex& ends() const { return ends_; }
  const ProbeSummary& probe(ProcId p) const { return probes_[p]; }
  InsertionScanCounts& scan_counts() const { return *counts_; }

  /// Report a placement on `p`, after Schedule::place.
  void note_placement(ProcId p) {
    used_ = std::max(used_, static_cast<int>(p) + 1);
    const Timeline& tl = sched_->timeline(p);
    probes_[p] = {tl.max_gap(), tl.last_gap_end()};
    const Time end = tl.end_time();
    if (end != ends_.end_of(p)) ends_.set(p, end);  // a hole fill keeps it
  }

 private:
  const Schedule* sched_;
  int limit_;
  int used_ = 0;
  ProcEndIndex ends_;
  ProbeSummary* probes_ = nullptr;  // PairScratch::proc_probes, per proc
  InsertionScanCounts* counts_ = nullptr;  // PairScratch::insertion_scan
};

/// Frozen arrival summary of a ready node (all parents placed). A parent's
/// finish without communication never exceeds its finish plus a cost
/// >= 0, so the data-ready time is max1 on every processor except proc1,
/// the host of the first parent reaching max1, where it is r1 <= max1.
struct ArrivalInfo {
  Time max1 = 0;           // largest FT(parent) + c over all parents
  Time r1 = 0;             // data-ready time on proc1 (max1 if kNoProc)
  ProcId proc1 = kNoProc;  // kNoProc: no parent reaches past t = 0

  /// Data-ready time of the node on processor p.
  Time ready_on(ProcId p) const { return p == proc1 ? r1 : max1; }
};

/// The arrival summary of ready node `n`, in O(parents).
ArrivalInfo arrival_of(const Schedule& s, NodeId n);

/// Append-placement earliest start of a node with arrival `a` over the
/// scan window, in O(1): min(max(r1, end[proc1]), max(max1, E)), where E
/// is the smallest end time in the window.
Time append_est(const ProcScanner& scanner, const ArrivalInfo& a);

/// Processor in [0, scanner.scan_count()) minimizing the earliest start of
/// node `n` with arrival `a` (ties: smaller processor id), and that start.
struct ProcChoice {
  ProcId proc;
  Time start;
};
ProcChoice best_est_proc(const ProcScanner& scanner, NodeId n,
                         const ArrivalInfo& a, bool insertion);

/// The pair policies' selection order over (node, start) candidates. ETF
/// takes the earliest start, ties to the smaller rank; DLS the largest
/// key - start, ties to the earlier start, then the smaller node id. Both
/// are strict total orders over distinct nodes (rank is a permutation),
/// and for a fixed node a later start is always strictly worse.
struct PairOrder {
  const Time* key;  // DLS: the metric scalar, larger = more urgent
  const int* rank;  // ETF: the total priority order, 0 = first
  bool dls;

  bool better(NodeId a, Time ta, NodeId b, Time tb) const {
    if (!dls) return ta != tb ? ta < tb : rank[a] < rank[b];
    const Time da = key[a] - ta;
    const Time db = key[b] - tb;
    if (da != db) return da > db;
    if (ta != tb) return ta < tb;
    return a < b;
  }
};

/// Reusable pools of the BNP list phases and the append pair selector,
/// owned by a SchedWorkspace. Flat per-node vectors replace per-run maps,
/// and every buffer keeps its capacity across runs, so starting a run is
/// O(procs) and steady-state runs allocate nothing. Stale entries are
/// never erased: each user rewrites a node's slots when it admits the node.
struct PairScratch {
  // The one frozen-arrival store: written when a node becomes ready, read
  // by the processor choice, the append selector, the dynamic list key and
  // the hole-filling pass.
  std::vector<ArrivalInfo> arrival;
  std::vector<Time> proc_ends;  // ProcScanner's end-time index
  std::vector<ProbeSummary> proc_probes;  // ProcScanner's probe summaries
  InsertionScanCounts insertion_scan;     // best_est_proc's work, all runs

  // AppendPairSelector: heaps of node ids whose keys are read from the
  // frozen arrivals (A terms: r1, G terms: max1).
  std::vector<NodeId> pend_a;   // A terms pending when last checked
  std::vector<NodeId> pend_g;   // G terms pending when last checked
  std::vector<NodeId> sat_g;    // G terms saturated: start E
  std::vector<std::vector<NodeId>> sat_a;  // proc q -> A saturated: end[q]
  std::vector<int> tour;        // tournament over the sat_a tops

  /// Size the frozen arrivals for `num_nodes` nodes (grow-only). Every
  /// BNP list run sizes them, so growing frees the old buffer first rather
  /// than holding both while the stale contents are copied.
  void bind_arrival(std::size_t num_nodes) {
    if (arrival.size() < num_nodes) {
      arrival = {};
      arrival.resize(num_nodes);
    }
  }
};

/// Append-mode (ready node, processor) pair selection in closed form.
///
/// With append placement EST(m, p) = max(ready_on(m, p), end[p]), and
/// ready_on(m, p) is max1 on every processor except proc1 (ArrivalInfo).
/// So, as append_est computes it,
///
///   EST(m) = min(A_m, G_m),  A_m = max(r1_m, end[proc1_m]),
///                            G_m = max(max1_m, E),
///
/// where r1_m and max1_m freeze at admission and E
/// is the smallest end time in the scan window. E is 0 while a fresh
/// processor is in the window, so E, like every end[q], never decreases.
///
/// A term is *pending* while its frozen value exceeds its threshold
/// (r1 > end[q], max1 > E): its value is the frozen one, a static key. It
/// is *saturated* once the threshold reaches it, and stays so, because
/// thresholds only grow; then its value is the threshold itself, shared
/// with every other term saturated on it. Hence:
///
///  * one lazily pruned heap per term kind holds the pending terms, keyed
///    by their frozen values; a top found saturated moves to its
///    saturated heap, a top whose node was placed is dropped;
///  * the saturated G terms share start E, so one heap ordered by the
///    PairOrder at equal starts (rank; or key desc, id) gives their best;
///    the saturated A terms get one such heap per processor q (start
///    end[q]), and a tournament over processors combines the tops,
///    updated only when a processor's end time or heap top changes.
///
/// pick() returns the best of these four tops under PairOrder. That is
/// the exhaustive scan's pick: every offered candidate is the exact value
/// of one of its node's two terms, so never better than the node's EST,
/// and for a fixed node a later start is strictly worse, so the best over
/// the union of terms sits at a node's smaller term, its EST.
///
/// best(n) then chooses the processor by the scan's rule (smallest id
/// among the earliest starts): best_est_proc in append mode.
class AppendPairSelector {
 public:
  /// Starts on the scanner's schedule with nothing placed. `scratch` and
  /// the arrays behind `order` must outlive the selector.
  AppendPairSelector(const ProcScanner& scanner, const PairOrder& order,
                     PairScratch& scratch);

  /// Admit a node whose parents are all placed; freezes its arrival.
  void node_ready(NodeId n);

  /// Report a placement on `p` (after Schedule::place and
  /// ProcScanner::note_placement). Placed nodes leave the heaps lazily:
  /// liveness is read from the schedule.
  void node_placed(ProcId p);

  /// The ready node the exhaustive (node, processor) scan would pick.
  /// Ready set must be non-empty.
  NodeId pick();

  /// Processor and start the scan would choose for ready node `n`.
  ProcChoice best(NodeId n) const;

 private:
  struct HeapCmp;  // max-heap order: the better candidate on top

  using Key = Time ArrivalInfo::*;  // nullptr: a saturated heap

  bool placed(NodeId m) const { return sched_->proc(m) != kNoProc; }
  Time end_of(ProcId q) const { return scanner_->ends().end_of(q); }
  const ArrivalInfo& arrival(NodeId m) const { return scratch_->arrival[m]; }
  void push(std::vector<NodeId>& heap, Key key, NodeId m);
  void pop(std::vector<NodeId>& heap, Key key);
  void push_sat_a(NodeId m);
  int winner(int p, int q) const;
  void refresh(ProcId q);

  const Schedule* sched_;
  const ProcScanner* scanner_;
  PairOrder order_;
  PairScratch* scratch_;
};

/// The body of LAST, the one BNP algorithm no parameter point expresses
/// (bnp/last.cpp holds its note). Same contract as Scheduler::Body.
Schedule last_schedule(const TaskGraph& g, const SchedOptions& opt,
                       SchedWorkspace& ws);

}  // namespace tgs
