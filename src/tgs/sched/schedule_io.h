// Plain-text schedule serialization, so schedules can be archived,
// diffed, or rendered by external tools.
//
// Format ("tgssched1"):
//   tgssched1 <num_tasks> <makespan>
//   task <node> <proc> <start>
//
// The graph itself is not embedded; loading requires the same TaskGraph
// (checked by node count and re-validation hooks at the call site).
#pragma once

#include <iosfwd>
#include <string>

#include "tgs/sched/schedule.h"

namespace tgs {

void write_schedule(std::ostream& os, const Schedule& s);
std::string schedule_to_string(const Schedule& s);

/// Parse a schedule for `g`; throws std::invalid_argument on malformed
/// input, node-count mismatch, or placements that overlap on a processor.
Schedule read_schedule(std::istream& is, const TaskGraph& g);
Schedule schedule_from_string(const std::string& text, const TaskGraph& g);

void save_schedule(const std::string& path, const Schedule& s);

}  // namespace tgs
