#include "tgs/sched/schedule.h"

#include <algorithm>
#include <stdexcept>

namespace tgs {

Schedule::Schedule(const TaskGraph& g, int num_procs_hint)
    : graph_(&g),
      proc_(g.num_nodes(), kNoProc),
      start_(g.num_nodes(), 0) {
  if (num_procs_hint > 0) timelines_.resize(num_procs_hint);
}

void Schedule::ensure_proc(ProcId p) {
  if (p < 0) throw std::invalid_argument("negative processor id");
  if (static_cast<std::size_t>(p) >= timelines_.size())
    timelines_.resize(static_cast<std::size_t>(p) + 1);
}

void Schedule::place(NodeId n, ProcId p, Time start) {
  if (proc_[n] != kNoProc) throw std::logic_error("task already placed");
  if (start < 0) throw std::invalid_argument("negative start time");
  ensure_proc(p);
  timelines_[p].occupy(static_cast<std::int64_t>(n), start, graph_->weight(n));
  proc_[n] = p;
  start_[n] = start;
  ++placed_count_;
}

void Schedule::unplace(NodeId n) {
  if (proc_[n] == kNoProc) throw std::logic_error("task not placed");
  timelines_[proc_[n]].release(static_cast<std::int64_t>(n), start_[n]);
  proc_[n] = kNoProc;
  start_[n] = 0;
  --placed_count_;
}

void Schedule::reset() {
  for (Timeline& tl : timelines_) tl.clear();
  std::fill(proc_.begin(), proc_.end(), kNoProc);
  std::fill(start_.begin(), start_.end(), Time{0});
  placed_count_ = 0;
}

int Schedule::procs_used() const {
  int used = 0;
  for (const Timeline& tl : timelines_)
    if (!tl.empty()) ++used;
  return used;
}

Time Schedule::makespan() const {
  Time m = 0;
  for (const Timeline& tl : timelines_) m = std::max(m, tl.end_time());
  return m;
}

Time Schedule::earliest_start_on(ProcId p, Time ready, Cost dur,
                                 bool insertion) const {
  if (p < 0) throw std::invalid_argument("negative processor id");
  if (static_cast<std::size_t>(p) >= timelines_.size()) return ready;
  return timelines_[p].earliest_fit(ready, dur, insertion);
}

Time Schedule::data_ready(NodeId n, ProcId p) const {
  Time ready = 0;
  for (const Adj& par : graph_->parents(n)) {
    if (proc_[par.node] == kNoProc) continue;
    const Time ft = start_[par.node] + graph_->weight(par.node);
    const Time arrival = proc_[par.node] == p ? ft : ft + par.cost;
    ready = std::max(ready, arrival);
  }
  return ready;
}

Time Schedule::est(NodeId n, ProcId p, bool insertion) const {
  return earliest_start_on(p, data_ready(n, p), graph_->weight(n), insertion);
}

}  // namespace tgs
