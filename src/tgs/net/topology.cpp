#include "tgs/net/topology.h"

#include <algorithm>
#include <stdexcept>

#include "tgs/util/rng.h"

namespace tgs {

Topology::Topology(std::string name, int p,
                   std::vector<std::pair<int, int>> links)
    : name_(std::move(name)), num_procs_(p), links_(std::move(links)) {
  if (p <= 0) throw std::invalid_argument("topology needs >= 1 processor");
  for (auto& [a, b] : links_) {
    if (a == b) throw std::invalid_argument("self-link");
    if (a > b) std::swap(a, b);
    if (b >= p) throw std::invalid_argument("link endpoint out of range");
  }
  std::sort(links_.begin(), links_.end());
  links_.erase(std::unique(links_.begin(), links_.end()), links_.end());

  off_.assign(static_cast<std::size_t>(p) + 1, 0);
  for (const auto& [a, b] : links_) {
    ++off_[a + 1];
    ++off_[b + 1];
  }
  for (int i = 0; i < p; ++i) off_[i + 1] += off_[i];
  adj_.resize(links_.size() * 2);
  std::vector<std::size_t> pos(off_.begin(), off_.end() - 1);
  for (int l = 0; l < static_cast<int>(links_.size()); ++l) {
    const auto [a, b] = links_[l];
    adj_[pos[a]++] = {b, l};
    adj_[pos[b]++] = {a, l};
  }
  for (int i = 0; i < p; ++i)
    std::sort(adj_.begin() + off_[i], adj_.begin() + off_[i + 1],
              [](const Neighbor& x, const Neighbor& y) { return x.proc < y.proc; });
}

Topology Topology::fully_connected(int p) {
  std::vector<std::pair<int, int>> links;
  for (int a = 0; a < p; ++a)
    for (int b = a + 1; b < p; ++b) links.emplace_back(a, b);
  return Topology("clique" + std::to_string(p), p, std::move(links));
}

Topology Topology::ring(int p) {
  std::vector<std::pair<int, int>> links;
  if (p == 2) links.emplace_back(0, 1);
  if (p >= 3)
    for (int a = 0; a < p; ++a) links.emplace_back(a, (a + 1) % p);
  return Topology("ring" + std::to_string(p), p, std::move(links));
}

Topology Topology::mesh(int rows, int cols) {
  std::vector<std::pair<int, int>> links;
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) links.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) links.emplace_back(id(r, c), id(r + 1, c));
    }
  return Topology("mesh" + std::to_string(rows) + "x" + std::to_string(cols),
                  rows * cols, std::move(links));
}

Topology Topology::hypercube(int dim) {
  if (dim < 0 || dim > 20) throw std::invalid_argument("bad hypercube dim");
  const int p = 1 << dim;
  std::vector<std::pair<int, int>> links;
  for (int a = 0; a < p; ++a)
    for (int d = 0; d < dim; ++d) {
      const int b = a ^ (1 << d);
      if (a < b) links.emplace_back(a, b);
    }
  return Topology("hcube" + std::to_string(dim), p, std::move(links));
}

Topology Topology::star(int p) {
  std::vector<std::pair<int, int>> links;
  for (int b = 1; b < p; ++b) links.emplace_back(0, b);
  return Topology("star" + std::to_string(p), p, std::move(links));
}

Topology Topology::random_connected(int p, double extra_prob,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, int>> links;
  // Random spanning tree: attach each node i >= 1 to a uniform earlier node.
  for (int i = 1; i < p; ++i)
    links.emplace_back(static_cast<int>(rng.uniform_int(0, i - 1)), i);
  for (int a = 0; a < p; ++a)
    for (int b = a + 1; b < p; ++b)
      if (rng.bernoulli(extra_prob)) links.emplace_back(a, b);
  return Topology("rand" + std::to_string(p), p, std::move(links));
}

Topology Topology::from_spec(const std::string& spec) {
  const auto fail = [&spec]() -> Topology {
    throw std::invalid_argument("bad topology spec: '" + spec + "'");
  };
  // Strict positive-integer parse of spec[pos..end); -1 on garbage.
  const auto num = [&spec](std::size_t pos, std::size_t end) -> long {
    if (pos >= end || end > spec.size()) return -1;
    long v = 0;
    for (std::size_t i = pos; i < end; ++i) {
      if (spec[i] < '0' || spec[i] > '9') return -1;
      v = v * 10 + (spec[i] - '0');
      if (v > 1'000'000) return -1;
    }
    return v;
  };
  const auto tail = [&](std::size_t prefix) { return num(prefix, spec.size()); };

  try {
    if (spec.rfind("ring", 0) == 0) {
      const long p = tail(4);
      if (p < 1) fail();
      return ring(static_cast<int>(p));
    }
    if (spec.rfind("hcube", 0) == 0) {
      const long d = tail(5);
      if (d < 0) fail();
      return hypercube(static_cast<int>(d));
    }
    if (spec.rfind("clique", 0) == 0) {
      const long p = tail(6);
      if (p < 1) fail();
      return fully_connected(static_cast<int>(p));
    }
    if (spec.rfind("star", 0) == 0) {
      const long p = tail(4);
      if (p < 1) fail();
      return star(static_cast<int>(p));
    }
    if (spec.rfind("mesh", 0) == 0) {
      const std::size_t x = spec.find('x', 4);
      if (x == std::string::npos) fail();
      const long r = num(4, x), c = num(x + 1, spec.size());
      if (r < 1 || c < 1) fail();
      return mesh(static_cast<int>(r), static_cast<int>(c));
    }
    if (spec.rfind("rand", 0) == 0) {
      const std::size_t at = spec.find('@', 4);
      const std::size_t hash = spec.find('#', 4);
      if (at == std::string::npos || hash == std::string::npos || hash < at)
        fail();
      const long p = num(4, at);
      if (p < 1) fail();
      std::size_t used = 0;
      const std::string prob_text = spec.substr(at + 1, hash - at - 1);
      const double prob = std::stod(prob_text, &used);
      if (used != prob_text.size() || prob < 0.0 || prob > 1.0) fail();
      const long seed = num(hash + 1, spec.size());
      if (seed < 0) fail();
      return random_connected(static_cast<int>(p), prob,
                              static_cast<std::uint64_t>(seed));
    }
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception&) {  // std::stod range errors and friends
    fail();
  }
  return fail();
}

int Topology::max_degree_proc() const {
  int best = 0;
  for (int p = 1; p < num_procs_; ++p)
    if (degree(p) > degree(best)) best = p;
  return best;
}

}  // namespace tgs
