#include "tgs/sched/validate.h"

#include <sstream>

namespace tgs {

ValidationResult validate_schedule(const Schedule& s, int max_procs) {
  const TaskGraph& g = s.graph();
  ValidationResult r;
  auto fail = [&r](const std::string& msg) {
    r.ok = false;
    r.error = msg;
    return r;
  };

  // 1. Placement completeness.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (!s.is_placed(n))
      return fail("task " + node_name(g, n) + " not placed");
    if (s.start(n) < 0)
      return fail("task " + node_name(g, n) + " has negative start");
    if (max_procs > 0 && s.proc(n) >= max_procs) {
      std::ostringstream os;
      os << "task " << node_name(g, n) << " on processor " << s.proc(n)
         << " but only " << max_procs << " allowed";
      return fail(os.str());
    }
  }

  // 2. Per-processor exclusivity. Timeline::occupy already enforces
  // non-overlap structurally; re-check defensively from scratch.
  for (int p = 0; p < s.num_procs(); ++p) {
    const auto& ivs = s.timeline(p).intervals();
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      if (ivs[i - 1].end > ivs[i].start) {
        std::ostringstream os;
        os << "overlap on processor " << p << " between tasks "
           << ivs[i - 1].owner << " and " << ivs[i].owner;
        return fail(os.str());
      }
    }
  }

  // 3. Precedence + communication constraints.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const Time ft_u = s.finish(u);
    for (const Adj& e : g.children(u)) {
      const NodeId v = e.node;
      const Time required =
          s.proc(u) == s.proc(v) ? ft_u : ft_u + e.cost;
      if (s.start(v) < required) {
        std::ostringstream os;
        os << "edge (" << node_name(g, u) << " -> " << node_name(g, v)
           << ") violated: start(" << node_name(g, v) << ") = " << s.start(v)
           << " < required " << required
           << (s.proc(u) == s.proc(v) ? " (same proc)" : " (cross proc)");
        return fail(os.str());
      }
    }
  }
  return r;
}

}  // namespace tgs
