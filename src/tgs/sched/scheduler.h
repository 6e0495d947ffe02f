// Common interface of the fully-connected-machine scheduling algorithms
// (the paper's BNP and UNC classes). APN algorithms, which additionally
// schedule messages on network links, implement ApnScheduler in
// apn/apn_common.h.
#pragma once

#include <memory>
#include <string>

#include "tgs/graph/task_graph.h"
#include "tgs/sched/schedule.h"
#include "tgs/sched/workspace.h"

namespace tgs {

/// Paper §4 taxonomy classes.
enum class AlgoClass { kBNP, kUNC, kAPN };

const char* algo_class_name(AlgoClass c);

struct SchedOptions {
  /// Number of processors available. <= 0 means "virtually unlimited"
  /// (paper §6.4.2: BNP algorithms were tested with a very large number of
  /// processors; UNC algorithms are defined for unbounded clusters).
  int num_procs = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Short identifier used in tables ("MCP", "DCP", ...).
  virtual std::string name() const = 0;

  virtual AlgoClass algo_class() const = 0;

  /// Produce a complete schedule with a private, freshly allocated
  /// workspace. Must be deterministic: equal inputs give bit-identical
  /// schedules.
  Schedule run(const TaskGraph& g, const SchedOptions& opt) const;

  /// Same, but reusing the caller's workspace buffers (and any graph
  /// attributes already computed for `g`). `ws` must have been bound to
  /// `g` with begin_graph(); throws std::logic_error otherwise. The
  /// schedule produced is bit-identical to the fresh-workspace overload.
  Schedule run(const TaskGraph& g, const SchedOptions& opt,
               SchedWorkspace& ws) const;

 protected:
  /// Algorithm body. `ws` is bound to `g` on entry; implementations may
  /// use ws.attrs() and ws.pair_scratch() freely but must not rebind it.
  virtual Schedule do_run(const TaskGraph& g, const SchedOptions& opt,
                          SchedWorkspace& ws) const = 0;
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

/// Effective processor count: one processor per task (the most any
/// schedule can use), or opt.num_procs when that is bounded and smaller.
int effective_procs(const TaskGraph& g, const SchedOptions& opt);

}  // namespace tgs
