#include "tgs/unc/clustering.h"

#include <numeric>
#include <unordered_map>

#include "tgs/sched/schedule.h"
#include "tgs/unc/dsc.h"

namespace tgs {

DisjointSets::DisjointSets(std::size_t n) : parent_(n) {
  std::iota(parent_.begin(), parent_.end(), NodeId{0});
}

NodeId DisjointSets::find(NodeId x) const {
  NodeId root = x;
  while (parent_[root] != root) root = parent_[root];
  // Path compression (state change is representation-only).
  while (parent_[x] != root) {
    const NodeId next = parent_[x];
    parent_[x] = root;
    x = next;
  }
  return root;
}

NodeId DisjointSets::merge(NodeId a, NodeId b) {
  const NodeId ra = find(a), rb = find(b);
  if (ra == rb) return ra;
  // Smaller representative wins: deterministic cluster ids.
  const NodeId lo = ra < rb ? ra : rb;
  const NodeId hi = ra < rb ? rb : ra;
  parent_[hi] = lo;
  return lo;
}

std::vector<ProcId> dense_assignment(const DisjointSets& ds) {
  std::vector<NodeId> labels(ds.size());
  for (NodeId i = 0; i < ds.size(); ++i) labels[i] = ds.find(i);
  return densify(labels);
}

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

std::vector<ProcId> dsc_clusters(const TaskGraph& g) {
  // DSC assigns start times while it clusters; the schedule IS the
  // clustering. Run it and keep only the processor (= cluster) labels.
  const Schedule s = DscScheduler().run(g, {});
  std::vector<NodeId> labels(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    labels[n] = static_cast<NodeId>(s.proc(n));
  return densify(labels);
}

}  // namespace tgs
