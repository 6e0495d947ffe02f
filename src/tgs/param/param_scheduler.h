// param_schedule: one list-scheduling core executing any ParamSpec point.
// Seven of the paper's algorithms (HLFET, ISH, MCP, ETF, DLS, EZ, LC) are
// rows of the registry table in harness/registry.cpp that pair a table
// name with a spec, and the Scheduler each row builds binds the spec to
// this function; every other point of the crossproduct is a novel
// combination reachable via make_scheduler("param:...") and the
// param_sweep experiment.
//
// Execution model (docs/parameterized.md has the axis taxonomy and the
// byte-identity map against the original standalone implementations):
//
//  1. metric -> a per-node scalar key plus a total priority order (rank).
//  2. optional cluster pre-pass -> a fixed node -> cluster assignment
//     (comm inside a cluster is free; clusters are folded LPT-style onto
//     opt.num_procs when they exceed a bounded machine).
//  3. list phase: the ready policy picks the next node (and processor),
//     the insertion policy places it; kHole back-fills the idle gap the
//     placement created. Pair policies without a cluster run on the
//     pair selectors of bnp/bnp_common.h: AppendPairSelector for append
//     and hole placement, IncrementalPairSelector for insertion.
//
// Determinism: every choice breaks ties by (rank, node id, processor id),
// and rank itself encodes the smallest-id tie-break, so equal inputs give
// bit-identical schedules at any thread count, with or without a shared
// workspace.
#pragma once

#include <vector>

#include "tgs/param/param_spec.h"
#include "tgs/sched/scheduler.h"

namespace tgs {

/// Reusable buffers of the parameterized core, owned by a SchedWorkspace
/// (behind a pointer so sched/ does not include param/ headers). Capacity
/// survives across runs; contents never do.
struct ParamScratch {
  std::vector<Time> key;      // metric scalar, larger = more urgent
  std::vector<int> rank;      // total priority order, 0 = first
  std::vector<NodeId> order;  // scratch for building rank
  std::vector<ProcId> assign; // cluster pre-pass: node -> processor

  // Lazy selection heap of the list phase (see param_scheduler.cpp). It
  // replaces the O(ready)-per-step argmin scan of the static/dynamic ready
  // policies with a log-time pop; entries whose node left the ready set
  // another way (hole filling) go stale and are discarded on pop.
  struct ListPick {
    Time primary;  // kDynamic: frozen arrival max1; kStatic: 0
    int rank;
    NodeId node;
  };
  std::vector<ListPick> list_heap;

  // kAlapList rank-compressed priority: one flat arena of dense ALAP ranks
  // per node ([rank(alap(n)), sorted child ranks]) replaces the per-node
  // vector<vector<Time>> of the original MCP (v heap allocations and an
  // O(v)-byte worst-case compare at v = 100k).
  std::vector<std::uint32_t> alap_rank;   // node -> dense ALAP rank
  std::vector<NodeId> alap_sorted;        // scratch: nodes by ALAP value
  std::vector<std::size_t> alap_off;      // node -> arena offset (v+1)
  std::vector<std::uint32_t> alap_arena;  // concatenated priority lists
};

/// Schedule `g` at the point `spec`. `ws` is bound to `g`; the run uses
/// ws.param_scratch() and ws.pair_scratch() (Scheduler::Body contract).
Schedule param_schedule(const ParamSpec& spec, const TaskGraph& g,
                        const SchedOptions& opt, SchedWorkspace& ws);

}  // namespace tgs
