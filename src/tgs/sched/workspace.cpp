#include "tgs/sched/workspace.h"

#include "tgs/bnp/bnp_common.h"  // complete PairScratch for the unique_ptr
#include "tgs/param/param_scheduler.h"  // complete ParamScratch

namespace tgs {

SchedWorkspace::SchedWorkspace()
    : pair_(std::make_unique<PairScratch>()),
      param_(std::make_unique<ParamScratch>()) {}

SchedWorkspace::~SchedWorkspace() = default;

void SchedWorkspace::begin_graph(const TaskGraph& g) {
  graph_ = &g;
  attrs_.bind(g);
}

}  // namespace tgs
