// Plain-text schedule serialization, so schedules can be archived,
// diffed, or rendered by external tools.
//
// Format ("tgssched1"):
//   tgssched1 <num_tasks> <makespan>
//   task <node> <proc> <start>
//
// The graph itself is not embedded: a reader needs the same TaskGraph.
#pragma once

#include <iosfwd>
#include <string>

#include "tgs/sched/schedule.h"

namespace tgs {

void write_schedule(std::ostream& os, const Schedule& s);
std::string schedule_to_string(const Schedule& s);

void save_schedule(const std::string& path, const Schedule& s);

}  // namespace tgs
