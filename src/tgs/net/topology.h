// Processor-network topologies for the APN (arbitrary processor network)
// class. Paper §4: APN algorithms assume "an arbitrary network topology, of
// which the links are not contention-free", and must schedule messages on
// the communication links.
//
// Model: an undirected connected graph of processors; each edge is a
// half-duplex link carrying one message at a time (in either direction).
// A message of size c occupies each link on its route for c time units
// (store-and-forward; uniform link bandwidth = 1 cost unit per time unit).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tgs/util/types.h"

namespace tgs {

class Topology {
 public:
  /// Complete graph on p processors.
  static Topology fully_connected(int p);
  /// Cycle 0-1-...-p-1-0 (p >= 3; p == 2 gives a single link, p == 1 none).
  static Topology ring(int p);
  /// rows x cols 2-D mesh (no wraparound).
  static Topology mesh(int rows, int cols);
  /// dim-dimensional hypercube (2^dim processors).
  static Topology hypercube(int dim);
  /// Star: processor 0 is the hub.
  static Topology star(int p);
  /// Random connected graph: a deterministic random spanning tree plus each
  /// extra edge with probability `extra_prob` (seeded; see util/rng.h).
  static Topology random_connected(int p, double extra_prob, std::uint64_t seed);

  const std::string& name() const { return name_; }
  int num_procs() const { return num_procs_; }
  int num_links() const { return static_cast<int>(links_.size()); }

  /// Undirected links as (a, b) with a < b, indexed by link id.
  const std::vector<std::pair<int, int>>& links() const { return links_; }

  /// Neighbours of p as (peer processor, link id), sorted by peer.
  struct Neighbor {
    int proc;
    int link;
  };
  std::span<const Neighbor> neighbors(int p) const {
    return {adj_.data() + off_[p], off_[p + 1] - off_[p]};
  }

  int degree(int p) const { return static_cast<int>(off_[p + 1] - off_[p]); }

  /// Processor with the largest degree (ties: smallest id) -- BSA's initial
  /// pivot.
  int max_degree_proc() const;

  /// Parse a compact spec: "ring<p>", "mesh<r>x<c>", "hcube<d>",
  /// "clique<p>", "star<p>", "rand<p>@<extra_prob>#<seed>". Deterministic:
  /// equal specs build identical topologies (the serve layer uses the spec
  /// string as the machine half of its cache keys). Throws
  /// std::invalid_argument on anything else.
  static Topology from_spec(const std::string& spec);

 private:
  Topology(std::string name, int p, std::vector<std::pair<int, int>> links);

  std::string name_;
  int num_procs_ = 0;
  std::vector<std::pair<int, int>> links_;
  std::vector<std::size_t> off_;
  std::vector<Neighbor> adj_;
};

}  // namespace tgs
