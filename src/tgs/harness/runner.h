// Timed, validated execution of one algorithm on one graph -- the paper's
// §6 measurement protocol (schedule length, processors used, running time,
// plus our always-on validity oracle).
#pragma once

#include <optional>
#include <string>

#include "tgs/apn/apn_common.h"
#include "tgs/sched/scheduler.h"

namespace tgs {

struct RunResult {
  std::string algo;
  Time length = 0;
  int procs_used = 0;
  double seconds = 0.0;   // scheduling time, wall clock
  bool valid = false;
  std::string error;      // first validation failure, if any
  double nsl = 0.0;       // normalized schedule length
};

/// Run + validate a BNP/UNC scheduler. When `max_procs` > 0 the validator
/// additionally enforces the processor bound.
RunResult run_scheduler(const Scheduler& algo, const TaskGraph& g,
                        const SchedOptions& opt);

/// Same, reusing the caller's workspace (bound to `g` via begin_graph()).
/// A sweep job binds one workspace per graph and passes it to every
/// algorithm, so graph attributes are computed once per graph -- not once
/// per run -- and scratch allocations are amortized away. `seconds`
/// measures the algorithm body only, which is exactly the steady-state
/// per-call cost the running-time experiments report. With `kept`, the
/// schedule itself is moved there after validation.
RunResult run_scheduler(const Scheduler& algo, const TaskGraph& g,
                        const SchedOptions& opt, SchedWorkspace& ws,
                        std::optional<Schedule>* kept = nullptr);

/// Run + validate an APN scheduler on a routed topology.
RunResult run_apn_scheduler(const ApnScheduler& algo, const TaskGraph& g,
                            const RoutingTable& routes);

/// Workspace-reusing variant, as above.
RunResult run_apn_scheduler(const ApnScheduler& algo, const TaskGraph& g,
                            const RoutingTable& routes, SchedWorkspace& ws);

}  // namespace tgs
