// Performance measures from paper §6.
#pragma once

#include "tgs/graph/task_graph.h"
#include "tgs/sched/schedule.h"

namespace tgs {

/// Normalized Schedule Length: L / (sum of computation costs on the
/// comm-inclusive critical path). NSL >= 1 would hold if the denominator
/// were a lower bound; with the paper's definition the denominator is the
/// CP computation sum, which IS a valid lower bound (a chain runs serially
/// on any machine), so NSL >= 1 for valid schedules.
double normalized_schedule_length(const TaskGraph& g, Time schedule_length);

/// Convenience overload.
double normalized_schedule_length(const Schedule& s);

/// Percentage degradation from an optimal (or reference) length:
/// 100 * (L - L_ref) / L_ref.
double percent_degradation(Time length, Time reference);

/// Simple speedup: serial time / schedule length.
double speedup(const TaskGraph& g, Time schedule_length);

}  // namespace tgs
