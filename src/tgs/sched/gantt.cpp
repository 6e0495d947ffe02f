#include "tgs/sched/gantt.h"

#include <algorithm>
#include <sstream>

namespace tgs {

std::string schedule_listing(const Schedule& s) {
  const TaskGraph& g = s.graph();
  std::ostringstream os;
  os << "schedule of '" << g.name() << "': makespan=" << s.makespan()
     << ", procs=" << s.procs_used() << "\n";
  for (int p = 0; p < s.num_procs(); ++p) {
    const auto& ivs = s.timeline(p).intervals();
    if (ivs.empty()) continue;
    os << "P" << p << " |";
    for (const Interval& iv : ivs) {
      os << " [" << iv.start << "," << iv.end << ") "
         << node_name(g, static_cast<NodeId>(iv.owner));
    }
    os << "\n";
  }
  return os.str();
}

std::string gantt_chart(const Schedule& s, int width) {
  const TaskGraph& g = s.graph();
  const Time span = std::max<Time>(s.makespan(), 1);
  width = std::max(width, 10);
  const double scale = static_cast<double>(width) / static_cast<double>(span);

  std::ostringstream os;
  os << "gantt '" << g.name() << "'  (1 col ~ "
     << static_cast<double>(span) / width << " time units)\n";
  for (int p = 0; p < s.num_procs(); ++p) {
    const auto& ivs = s.timeline(p).intervals();
    if (ivs.empty()) continue;
    std::string row(static_cast<std::size_t>(width) + 1, ' ');
    for (const Interval& iv : ivs) {
      int a = static_cast<int>(iv.start * scale);
      int b = std::max(a + 1, static_cast<int>(iv.end * scale));
      b = std::min(b, width);
      for (int c = a; c < b; ++c) row[c] = '#';
      const std::string name = node_name(g, static_cast<NodeId>(iv.owner));
      // Write the label inside the block when it fits.
      if (b - a > static_cast<int>(name.size())) {
        for (std::size_t k = 0; k < name.size(); ++k)
          row[static_cast<std::size_t>(a) + 1 + k] = name[k];
      }
    }
    os << "P" << p << " |" << row << "|\n";
  }
  os << "     0" << std::string(static_cast<std::size_t>(width) - 5, ' ')
     << span << "\n";
  return os.str();
}

}  // namespace tgs
