#include "tgs/serve/faults.h"

#include <cstdlib>
#include <stdexcept>

#include "tgs/util/rng.h"

namespace tgs {

namespace {

constexpr std::size_t kNumPoints =
    static_cast<std::size_t>(FaultPoint::kCount);

constexpr const char* kPointNames[kNumPoints] = {
    "accept_eintr", "read_eintr",   "read_short",   "write_eintr",
    "write_short",  "worker_stall", "journal_torn", "cache_oom",
};

/// Deterministic percent decision: a fixed (seed, point, hit) triple
/// always lands on the same side, independent of thread interleaving.
bool percent_hit(std::uint64_t seed, std::size_t point, std::uint64_t hit,
                 std::uint32_t percent) {
  if (percent >= 100) return true;
  std::uint64_t state = seed ^ (static_cast<std::uint64_t>(point) << 56) ^ hit;
  return splitmix64(state) % 100 < percent;
}

/// Parse a decimal integer span [b, e); throws on junk.
std::uint64_t parse_u64(const std::string& s, const std::string& clause) {
  if (s.empty()) throw std::invalid_argument("fault clause '" + clause +
                                             "': empty number");
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9')
      throw std::invalid_argument("fault clause '" + clause +
                                  "': bad number '" + s + "'");
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

FaultPlan& FaultPlan::global() {
  static FaultPlan plan;
  return plan;
}

void FaultPlan::arm(FaultPoint p, FaultRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  PointState& st = points_[static_cast<std::size_t>(p)];
  if (!st.armed) armed_points_.fetch_add(1, std::memory_order_relaxed);
  st.armed = true;
  st.rule = rule;
  st.hits = 0;
  st.fired = 0;
}

void FaultPlan::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (PointState& st : points_) st = PointState{};
  armed_points_.store(0, std::memory_order_relaxed);
  seed_ = 1;
}

void FaultPlan::set_seed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
}

bool FaultPlan::fire(FaultPoint p, std::int64_t* arg) {
  std::lock_guard<std::mutex> lock(mu_);
  PointState& st = points_[static_cast<std::size_t>(p)];
  if (!st.armed) return false;
  const std::uint64_t hit = st.hits++;
  if (hit < st.rule.skip) return false;
  if (st.rule.count != ~std::uint64_t{0} &&
      st.fired >= st.rule.count)
    return false;
  if (!percent_hit(seed_, static_cast<std::size_t>(p), hit, st.rule.percent))
    return false;
  ++st.fired;
  if (arg != nullptr) *arg = st.rule.arg;
  return true;
}

std::uint64_t FaultPlan::fired(FaultPoint p) const {
  std::lock_guard<std::mutex> lock(mu_);
  return points_[static_cast<std::size_t>(p)].fired;
}

void FaultPlan::arm_spec(const std::string& spec) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string clause = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (clause.empty()) continue;

    if (clause.rfind("seed=", 0) == 0) {
      set_seed(parse_u64(clause.substr(5), clause));
      continue;
    }

    // Split the clause at its markers. Order in the grammar is
    // name[@skip][*count][:arg][~percent]; accept the markers in any
    // order after the name to be forgiving.
    std::size_t name_end = clause.find_first_of("@*:~");
    if (name_end == std::string::npos) name_end = clause.size();
    const std::string name = clause.substr(0, name_end);

    FaultRule rule;
    std::size_t i = name_end;
    while (i < clause.size()) {
      const char marker = clause[i++];
      std::size_t j = clause.find_first_of("@*:~", i);
      if (j == std::string::npos) j = clause.size();
      const std::string val = clause.substr(i, j - i);
      switch (marker) {
        case '@':
          rule.skip = parse_u64(val, clause);
          break;
        case '*':
          rule.count = val.empty() ? ~std::uint64_t{0} : parse_u64(val, clause);
          break;
        case ':':
          rule.arg = static_cast<std::int64_t>(parse_u64(val, clause));
          break;
        case '~': {
          const std::uint64_t p = parse_u64(val, clause);
          if (p > 100)
            throw std::invalid_argument("fault clause '" + clause +
                                        "': percent > 100");
          rule.percent = static_cast<std::uint32_t>(p);
          break;
        }
      }
      i = j;
    }

    bool matched = false;
    for (std::size_t k = 0; k < kNumPoints; ++k) {
      if (name == kPointNames[k]) {
        arm(static_cast<FaultPoint>(k), rule);
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::string known;
      for (std::size_t k = 0; k < kNumPoints; ++k) {
        if (k > 0) known += ", ";
        known += kPointNames[k];
      }
      throw std::invalid_argument("unknown fault point '" + name +
                                  "' (known: " + known + ")");
    }
  }
}

}  // namespace tgs
