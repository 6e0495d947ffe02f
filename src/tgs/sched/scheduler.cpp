#include "tgs/sched/scheduler.h"

#include <algorithm>
#include <stdexcept>

namespace tgs {

Schedule Scheduler::run(const TaskGraph& g, const SchedOptions& opt) const {
  SchedWorkspace ws;
  ws.begin_graph(g);
  return do_run(g, opt, ws);
}

Schedule Scheduler::run(const TaskGraph& g, const SchedOptions& opt,
                        SchedWorkspace& ws) const {
  if (ws.graph() != &g)
    throw std::logic_error(
        "SchedWorkspace not bound to this graph; call begin_graph() first");
  return do_run(g, opt, ws);
}

const char* algo_class_name(AlgoClass c) {
  switch (c) {
    case AlgoClass::kBNP: return "BNP";
    case AlgoClass::kUNC: return "UNC";
    case AlgoClass::kAPN: return "APN";
  }
  return "?";
}

int effective_procs(const TaskGraph& g, const SchedOptions& opt) {
  const int v = std::max(1, static_cast<int>(g.num_nodes()));
  return opt.num_procs > 0 ? std::min(opt.num_procs, v) : v;
}

}  // namespace tgs
