#include "tgs/graph/fingerprint.h"

#include <cstdio>

#include "tgs/util/rng.h"

namespace tgs {
namespace {

// Two independently-seeded accumulator lanes; each absorbed word is mixed
// with the running state so word order matters (the canonical encoding is
// ordered by construction).
struct Hash128 {
  std::uint64_t hi = 0x6a09e667f3bcc908ULL;  // sqrt(2), sqrt(3) fractions
  std::uint64_t lo = 0xbb67ae8584caa73bULL;

  void absorb(std::uint64_t w) {
    hi = mix64(hi ^ w);
    lo = mix64(lo + (w ^ 0xa5a5a5a5a5a5a5a5ULL));
  }
};

}  // namespace

std::string GraphFingerprint::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

GraphFingerprint graph_fingerprint(const TaskGraph& g) {
  Hash128 h;
  h.absorb(0x7467735f666e6731ULL);  // "tgs_fng1": format/version tag
  h.absorb(g.num_nodes());
  h.absorb(g.num_edges());
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    h.absorb(static_cast<std::uint64_t>(g.weight(n)));
  // children() spans are sorted by peer id, so iterating nodes in id order
  // visits every edge exactly once in a canonical order regardless of the
  // order edges were added or listed in a file.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Adj& a : g.children(u)) {
      h.absorb((static_cast<std::uint64_t>(u) << 32) | a.node);
      h.absorb(static_cast<std::uint64_t>(a.cost));
    }
  }
  return {h.hi, h.lo};
}

}  // namespace tgs
