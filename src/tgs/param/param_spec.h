// The parameterized scheduler design space (ROADMAP: "Parameterized
// scheduler space"; Coleman's parameterized task-graph scheduling made
// concrete on this codebase).
//
// The paper's BNP/UNC list schedulers differ along four orthogonal axes:
//
//   metric     which node attribute orders the work
//   ready      how the next (node, processor) decision is made
//   insertion  where a task lands on its processor's timeline
//   cluster    an optional pre-pass fixing the node -> processor map
//
// A ParamSpec is one point of the crossproduct; param_schedule (see
// param_scheduler.h) executes any point, and make_scheduler() binds a
// point to it as an ordinary Scheduler.
// The named algorithms HLFET, ISH, MCP, ETF, DLS, EZ and LC are specific
// points (byte-identical to their original standalone implementations;
// docs/parameterized.md has the full map and the proofs sketch). The spec
// string syntax accepted by make_scheduler(), tgs_schedule, tgs_serve and
// tgs_bench is
//
//   param:<metric>/<ready>/<insertion>[/<cluster>]
//
// e.g. "param:bl/etf/insert" or "param:alap/static/append/lc".
#pragma once

#include <string>
#include <vector>

namespace tgs {

/// Priority metric: the per-node scalar (larger = scheduled earlier).
enum class ParamMetric {
  kSL,        // static level (b-level with comm ignored)        -- HLFET/ISH
  kBL,        // b-level (comm-inclusive)                        -- EZ/LC order
  kTL,        // negated t-level: smallest earliest-start first
  kALAP,      // negated ALAP time: most critical first
  kBLminusTL, // b-level minus t-level (largest slack-free span)
  kCP,        // CP membership first (by b-level), then b-level
  kAlapList,  // MCP's lexicographic [alap(n), sorted child alaps]
};

/// Ready-list policy: how the next node (and processor) is chosen.
enum class ParamReady {
  kStatic,   // fixed metric order; next = highest-priority ready node
  kDynamic,  // re-sort by frozen arrival time (earliest data first),
             // metric as tie-break
  kPairEtf,  // (node, proc) pair with globally earliest start (ETF rule)
  kPairDls,  // pair maximizing metric - EST (DLS dynamic-level rule)
};

/// Placement policy on the chosen processor.
enum class ParamInsertion {
  kAppend,  // after the processor's last task
  kInsert,  // earliest idle slot that fits (MCP-style insertion)
  kHole,    // append, then back-fill the created idle hole with other
            // ready tasks that fit (ISH-style hole filling)
};

/// Optional clustering pre-pass fixing the node -> cluster map; the list
/// phase then only orders tasks inside their fixed clusters (comm inside
/// a cluster is free).
enum class ParamCluster {
  kNone,
  kEz,   // Sarkar edge zeroing (unc/ez.cpp core)
  kLc,   // Kim-Browne linear clustering (unc/lc.cpp core)
  kDsc,  // Yang-Gerasoulis dominant sequence clustering (unc/dsc.cpp)
};

struct ParamSpec {
  ParamMetric metric = ParamMetric::kSL;
  ParamReady ready = ParamReady::kStatic;
  ParamInsertion insertion = ParamInsertion::kAppend;
  ParamCluster cluster = ParamCluster::kNone;

  /// Canonical spec string, always 4 segments: "param:sl/static/append/none".
  std::string to_string() const;

  /// True when `name` uses the "param:" scheme (parse() will accept or
  /// throw; other names belong to the classic registry).
  static bool is_spec(const std::string& name);

  /// Parse "param:<metric>/<ready>/<insertion>[/<cluster>]" (the prefix is
  /// optional). Throws std::invalid_argument naming the bad token and the
  /// grammar.
  static ParamSpec parse(const std::string& text);

  friend bool operator==(const ParamSpec&, const ParamSpec&) = default;
};

// Token tables (lowercase, as used in spec strings).
const char* param_metric_token(ParamMetric m);
const char* param_ready_token(ParamReady r);
const char* param_insertion_token(ParamInsertion i);
const char* param_cluster_token(ParamCluster c);

const std::vector<ParamMetric>& all_param_metrics();
const std::vector<ParamReady>& all_param_readies();
const std::vector<ParamInsertion>& all_param_insertions();
const std::vector<ParamCluster>& all_param_clusters();

/// One-line grammar summary, embedded in error messages:
/// "param:<metric>/<ready>/<insertion>[/<cluster>] with metric={...} ...".
std::string param_spec_grammar();

}  // namespace tgs
