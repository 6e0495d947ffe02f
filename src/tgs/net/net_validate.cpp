#include "tgs/net/net_validate.h"

#include <sstream>

namespace tgs {

ValidationResult validate_net_schedule(const NetSchedule& ns) {
  const TaskGraph& g = ns.graph();
  const Schedule& s = ns.tasks();
  ValidationResult r;
  auto fail = [&r](const std::string& msg) {
    r.ok = false;
    r.error = msg;
    return r;
  };

  // Task layer: placement, exclusivity, same-proc precedence. The
  // cross-proc arrival rule differs (messages, not flat costs), so run the
  // checks manually rather than via validate_schedule.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (!s.is_placed(n)) return fail("task not placed");
    if (s.start(n) < 0) return fail("negative start");
    if (s.proc(n) >= ns.topology().num_procs())
      return fail("processor id outside topology");
  }
  for (int p = 0; p < s.num_procs(); ++p) {
    const auto& ivs = s.timeline(p).intervals();
    for (std::size_t i = 1; i < ivs.size(); ++i)
      if (ivs[i - 1].end > ivs[i].start) {
        std::ostringstream os;
        os << "task overlap on processor " << p;
        return fail(os.str());
      }
  }

  // Link exclusivity.
  for (int l = 0; l < ns.topology().num_links(); ++l) {
    const auto& ivs = ns.link_timeline(l).intervals();
    for (std::size_t i = 1; i < ivs.size(); ++i)
      if (ivs[i - 1].end > ivs[i].start) {
        std::ostringstream os;
        os << "message overlap on link " << l;
        return fail(os.str());
      }
  }

  // Exactly one message per cross-proc edge and none for a same-proc
  // edge. commit_parent_message records at most one message per edge, so
  // checking every edge accounts for every committed message. The walk
  // visits edges in parent-CSR slot order, so it counts slots instead of
  // searching for each one.
  const RoutingTable& routes = ns.routes();
  std::size_t slot = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Adj& e : g.parents(v)) {
      const NodeId u = e.node;
      const Message* m = ns.find_message(slot++);
      const int src = s.proc(u), dst = s.proc(v);
      if (src == dst) {
        if (m != nullptr) {
          std::ostringstream os;
          os << "message committed for same-proc edge " << u << "->" << v;
          return fail(os.str());
        }
        if (s.start(v) < s.finish(u)) {
          std::ostringstream os;
          os << "same-proc precedence violated on edge " << u << "->" << v;
          return fail(os.str());
        }
        continue;
      }
      if (m == nullptr) {
        std::ostringstream os;
        os << "missing message for cross-proc edge " << u << "->" << v;
        return fail(os.str());
      }
      if (m->size != e.cost) return fail("message size != edge cost");
      if (e.cost > 0) {
        // Route must be the routing-tree path proc(u) -> proc(v), which
        // the tree yields back-to-front.
        const auto hops = ns.hops(*m);
        if (hops.size() != static_cast<std::size_t>(routes.distance(src, dst)))
          return fail("message hop count differs from route");
        int cur = dst;
        for (std::size_t h = hops.size(); h > 0; --h) {
          const RoutingTable::SweepStep& st = routes.tree_edge(src, cur);
          if (hops[h - 1].link != st.link)
            return fail("message uses a link off its route");
          cur = st.parent;
        }
        // Hop timing: departs after FT(u), hops ordered, duration == size.
        Time prev_end = s.finish(u);
        for (const MsgHop& hop : hops) {
          if (hop.start < prev_end) return fail("hop starts before data ready");
          if (hop.end - hop.start != m->size) return fail("hop duration wrong");
          prev_end = hop.end;
        }
        if (s.start(v) < prev_end) {
          std::ostringstream os;
          os << "task " << v << " starts before message arrival on edge " << u
             << "->" << v;
          return fail(os.str());
        }
      } else {
        if (s.start(v) < s.finish(u))
          return fail("zero-cost cross edge precedence violated");
      }
    }
  }
  return r;
}

}  // namespace tgs
