// A fully-connected-machine scheduling algorithm (the paper's BNP and UNC
// classes) as data: a name, a class and the body that schedules. The
// registry (harness/registry.h) builds every one from its table. APN
// algorithms, which additionally schedule messages on network links, are
// ApnScheduler values (apn/apn_common.h).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>

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
  /// Algorithm body. `ws` is bound to `g` on entry; a body may use
  /// ws.attrs() and ws.pair_scratch() freely but must not rebind it. Must
  /// be deterministic: equal inputs give bit-identical schedules.
  using Body = std::function<Schedule(const TaskGraph&, const SchedOptions&,
                                      SchedWorkspace&)>;

  Scheduler(std::string name, AlgoClass cls, Body body)
      : name_(std::move(name)), cls_(cls), body_(std::move(body)) {}

  /// Short identifier used in tables ("MCP", "DCP", ...).
  std::string name() const { return name_; }

  AlgoClass algo_class() const { return cls_; }

  /// Produce a complete schedule with a private, freshly allocated
  /// workspace.
  Schedule run(const TaskGraph& g, const SchedOptions& opt) const;

  /// Same, but reusing the caller's workspace buffers (and any graph
  /// attributes already computed for `g`). `ws` must have been bound to
  /// `g` with begin_graph(); throws std::logic_error otherwise. The
  /// schedule produced is bit-identical to the fresh-workspace overload.
  Schedule run(const TaskGraph& g, const SchedOptions& opt,
               SchedWorkspace& ws) const;

 private:
  std::string name_;
  AlgoClass cls_;
  Body body_;
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

/// Effective processor count: one processor per task (the most any
/// schedule can use), or opt.num_procs when that is bounded and smaller.
int effective_procs(const TaskGraph& g, const SchedOptions& opt);

}  // namespace tgs
