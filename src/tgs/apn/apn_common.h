// Shared machinery of the APN (arbitrary processor network) algorithms:
// the ApnScheduler type, (node, processor) EST probes against the current
// link state, node commitment with real message routing, the
// fixed-assignment network list scheduler that BU and BSA build on, and
// the four algorithm bodies.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tgs/net/net_schedule.h"
#include "tgs/net/routing.h"
#include "tgs/sched/workspace.h"

namespace tgs {

/// An APN algorithm as data: a name and the body that schedules tasks and
/// messages on the routed topology. The registry (harness/registry.h)
/// builds the four of the paper from its table.
class ApnScheduler {
 public:
  /// Algorithm body. `ws` is bound to `g` on entry. Must be deterministic
  /// for equal inputs.
  using Body = NetSchedule (*)(const TaskGraph&, const RoutingTable&,
                               SchedWorkspace&);

  ApnScheduler(std::string name, Body body)
      : name_(std::move(name)), body_(body) {}

  std::string name() const { return name_; }

  /// Produce a complete task + message schedule on the routed topology
  /// with a private, freshly allocated workspace.
  NetSchedule run(const TaskGraph& g, const RoutingTable& routes) const;

  /// Same, but reusing the caller's workspace (`ws` must be bound to `g`
  /// via begin_graph(); throws std::logic_error otherwise). Bit-identical
  /// to the fresh-workspace overload.
  NetSchedule run(const TaskGraph& g, const RoutingTable& routes,
                  SchedWorkspace& ws) const;

 private:
  std::string name_;
  Body body_;
};

using ApnSchedulerPtr = std::unique_ptr<ApnScheduler>;

/// One-to-all data-ready times: fills scratch.ready[p] with the arrival
/// maximum over n's parents on every processor by composing each parent's
/// one-to-all routing-tree sweep (NetSchedule::probe_arrival_all) -- each
/// parent touches each tree link once instead of re-walking its route per
/// destination. Callers that only score a few processors (BSA's neighbour
/// scan) combine this with Schedule::earliest_start_on themselves.
void apn_probe_ready_all(const NetSchedule& ns, NodeId n,
                         ApnSweepScratch& scratch);

/// Earliest start time of ready node `n` (all parents placed) on EVERY
/// processor: fills scratch.est[p] on top of apn_probe_ready_all, probing
/// message routes against current link reservations without committing
/// them. Concurrent parent messages do not see each other in the probe
/// (exactness is restored at commit time). MH's full processor scan reads
/// one sweep; DLS(APN) composes the same parent sweeps itself, one parent
/// at a time (apn/dls_apn.cpp).
void apn_probe_est_all(const NetSchedule& ns, NodeId n, bool insertion,
                       ApnSweepScratch& scratch);

/// Commit node `n` to processor `p`: routes one message per cross-processor
/// parent edge (in ascending parent id), then places the task at the
/// earliest feasible start. Returns the start time.
Time apn_commit_node(NetSchedule& ns, NodeId n, int p, bool insertion);

/// Rebuild `ns` from a fixed node -> processor assignment: reset() it, then
/// commit the tasks in `order` (blevel_order of the graph) as above. The
/// reset keeps every buffer, so repeated rebuilds into one schedule stop
/// allocating once it is warm. `assign` must hold one entry per node.
void apn_build_into(NetSchedule& ns, const std::vector<NodeId>& order,
                    const std::vector<ProcId>& assign, bool insertion);

// The bodies of the paper's four APN algorithms, one per source file
// (apn/mh.cpp, apn/dls_apn.cpp, apn/bu.cpp, apn/bsa.cpp, where each
// algorithm's note sits). Same contract as ApnScheduler::Body.
NetSchedule mh_schedule(const TaskGraph& g, const RoutingTable& routes,
                        SchedWorkspace& ws);
NetSchedule dls_apn_schedule(const TaskGraph& g, const RoutingTable& routes,
                             SchedWorkspace& ws);
NetSchedule bu_schedule(const TaskGraph& g, const RoutingTable& routes,
                        SchedWorkspace& ws);
NetSchedule bsa_schedule(const TaskGraph& g, const RoutingTable& routes,
                         SchedWorkspace& ws);

}  // namespace tgs
