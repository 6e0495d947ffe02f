#include "tgs/unc/clustering.h"

#include <unordered_map>

namespace tgs {

std::vector<ProcId> densify(const std::vector<NodeId>& labels) {
  std::unordered_map<NodeId, ProcId> remap;
  std::vector<ProcId> out(labels.size());
  ProcId next = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    auto [it, inserted] = remap.emplace(labels[i], next);
    if (inserted) ++next;
    out[i] = it->second;
  }
  return out;
}

std::vector<ProcId> dsc_clusters(const TaskGraph& g, SchedWorkspace& ws) {
  // DSC assigns start times while it clusters; the schedule IS the
  // clustering. Run it and keep only the processor (= cluster) labels.
  const Schedule s = dsc_schedule(g, {}, ws);
  std::vector<NodeId> labels(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    labels[n] = static_cast<NodeId>(s.proc(n));
  return densify(labels);
}

}  // namespace tgs
