#include "tgs/net/routing.h"

#include <queue>
#include <stdexcept>

namespace tgs {

RoutingTable::RoutingTable(Topology topo) : topo_(std::move(topo)) {
  const Topology& t = topo_;
  const int p = t.num_procs();
  sweep_.reserve(static_cast<std::size_t>(p) * (p - 1));
  step_of_.assign(static_cast<std::size_t>(p) * p, 0);

  std::vector<int> depth(p);
  std::vector<bool> seen(p);
  // BFS from each source with ascending-id neighbour visits, so parent
  // pointers (and thus routes) are deterministic. Appends the tree edges
  // to sweep_ in visit order: parents always precede children.
  for (int src = 0; src < p; ++src) {
    std::fill(seen.begin(), seen.end(), false);
    depth[src] = 0;
    std::queue<int> q;
    seen[src] = true;
    q.push(src);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (const Topology::Neighbor& nb : t.neighbors(u)) {
        if (seen[nb.proc]) continue;
        seen[nb.proc] = true;
        depth[nb.proc] = depth[u] + 1;
        step_of_[index(src, nb.proc)] =
            static_cast<std::uint32_t>(sweep_.size());
        sweep_.push_back({static_cast<std::int32_t>(nb.proc),
                          static_cast<std::int32_t>(u),
                          static_cast<std::int32_t>(nb.link),
                          static_cast<std::int32_t>(depth[nb.proc])});
        q.push(nb.proc);
      }
    }
    if (sweep_.size() != static_cast<std::size_t>(src + 1) * (p - 1))
      throw std::invalid_argument("topology is not connected");
  }
}

}  // namespace tgs
