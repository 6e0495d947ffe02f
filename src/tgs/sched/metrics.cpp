#include "tgs/sched/metrics.h"

#include "tgs/graph/attributes.h"

namespace tgs {

double normalized_schedule_length(const TaskGraph& g, Time schedule_length) {
  const auto cp = critical_path(g);
  const Cost denom = path_computation_cost(g, cp);
  if (denom <= 0) return 0.0;
  return static_cast<double>(schedule_length) / static_cast<double>(denom);
}

double normalized_schedule_length(const Schedule& s) {
  return normalized_schedule_length(s.graph(), s.makespan());
}

double percent_degradation(Time length, Time reference) {
  if (reference <= 0) return 0.0;
  return 100.0 * static_cast<double>(length - reference) /
         static_cast<double>(reference);
}

double speedup(const TaskGraph& g, Time schedule_length) {
  if (schedule_length <= 0) return 0.0;
  return static_cast<double>(g.total_weight()) /
         static_cast<double>(schedule_length);
}

}  // namespace tgs
