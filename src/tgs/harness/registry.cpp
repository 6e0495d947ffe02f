#include "tgs/harness/registry.h"

#include <stdexcept>
#include <variant>

#include "tgs/bnp/bnp_common.h"
#include "tgs/param/param_scheduler.h"
#include "tgs/unc/clustering.h"

namespace tgs {

namespace {

using Body = Schedule (*)(const TaskGraph&, const SchedOptions&,
                          SchedWorkspace&);

/// A fully-connected-machine algorithm: either a point of the
/// parameterized core (docs/parameterized.md proves each one byte-identical
/// to the original standalone implementation) or the body of one of the
/// four algorithms no point expresses.
struct SchedulerRow {
  const char* name;
  AlgoClass cls;
  std::variant<ParamSpec, Body> how;
};

using M = ParamMetric;
using R = ParamReady;
using I = ParamInsertion;
using C = ParamCluster;

/// The paper's Table 1 order: UNC, then BNP; each class in the paper's
/// order. Citations are the paper's reference numbers.
constexpr SchedulerRow kSchedulers[] = {
    // Sarkar 1989 [28]: zero edges by descending cost while the makespan
    // does not grow.
    {"EZ", AlgoClass::kUNC, ParamSpec{M::kBL, R::kStatic, I::kAppend, C::kEz}},
    // Kim & Browne 1988 [20]: peel critical paths into linear clusters.
    {"LC", AlgoClass::kUNC, ParamSpec{M::kBL, R::kStatic, I::kAppend, C::kLc}},
    {"DSC", AlgoClass::kUNC, dsc_schedule},
    {"MD", AlgoClass::kUNC, md_schedule},
    {"DCP", AlgoClass::kUNC, dcp_schedule},
    // Adam, Chandy & Dickson 1974 [11]: highest static level first.
    {"HLFET", AlgoClass::kBNP,
     ParamSpec{M::kSL, R::kStatic, I::kAppend, C::kNone}},
    // Kruatrachue & Lewis 1987 [21]: HLFET plus hole filling.
    {"ISH", AlgoClass::kBNP, ParamSpec{M::kSL, R::kStatic, I::kHole, C::kNone}},
    // Wu & Gajski 1990 [32]: ALAP-list order, insertion.
    {"MCP", AlgoClass::kBNP,
     ParamSpec{M::kAlapList, R::kStatic, I::kInsert, C::kNone}},
    // Hwang, Chow, Anger & Lee 1989 [17]: globally earliest (node, proc).
    {"ETF", AlgoClass::kBNP,
     ParamSpec{M::kSL, R::kPairEtf, I::kAppend, C::kNone}},
    // Sih & Lee 1993 [31]: (node, proc) maximizing SL - EST.
    {"DLS", AlgoClass::kBNP,
     ParamSpec{M::kSL, R::kPairDls, I::kAppend, C::kNone}},
    {"LAST", AlgoClass::kBNP, last_schedule},
};

struct ApnRow {
  const char* name;
  ApnScheduler::Body body;
  // The listed name an alias row stands for. Lookup accepts alias rows;
  // the lists and name lists leave them out.
  const char* alias_of = nullptr;
};

constexpr ApnRow kApnSchedulers[] = {
    {"MH", mh_schedule},
    {"DLS", dls_apn_schedule},
    {"BU", bu_schedule},
    {"BSA", bsa_schedule},
    {"DLS-APN", dls_apn_schedule, "DLS"},
};

/// A parameter point as a Scheduler: the spec bound to param_schedule. The
/// point is a UNC algorithm exactly when it clusters.
SchedulerPtr param_scheduler(std::string name, const ParamSpec& spec) {
  return std::make_unique<Scheduler>(
      std::move(name),
      spec.cluster == ParamCluster::kNone ? AlgoClass::kBNP : AlgoClass::kUNC,
      [spec](const TaskGraph& g, const SchedOptions& opt, SchedWorkspace& ws) {
        return param_schedule(spec, g, opt, ws);
      });
}

SchedulerPtr build(const SchedulerRow& row) {
  if (const auto* spec = std::get_if<ParamSpec>(&row.how))
    return param_scheduler(row.name, *spec);
  return std::make_unique<Scheduler>(row.name, row.cls,
                                     std::get<Body>(row.how));
}

const SchedulerRow* find_row(const std::string& name) {
  for (const SchedulerRow& row : kSchedulers)
    if (name == row.name) return &row;
  return nullptr;
}

ApnSchedulerPtr build(const ApnRow& row) {
  // An alias row runs under the listed name it stands for.
  return std::make_unique<ApnScheduler>(
      row.alias_of != nullptr ? row.alias_of : row.name, row.body);
}

std::vector<std::string> names_of_class(AlgoClass cls) {
  std::vector<std::string> out;
  for (const SchedulerRow& row : kSchedulers)
    if (row.cls == cls) out.emplace_back(row.name);
  return out;
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

/// Both lookups name every algorithm, so a name sent to the wrong one
/// (an APN name without a topology, say) says where it belongs.
std::invalid_argument unknown_name(const std::string& what,
                                   const std::string& name) {
  std::string aliases;
  for (const ApnRow& row : kApnSchedulers)
    if (row.alias_of != nullptr)
      aliases += std::string("; ") + row.name + " is an alias for " +
                 row.alias_of;
  return std::invalid_argument(
      "unknown " + what + " '" + name + "'; fully-connected machine: " +
      join_names(unc_names()) + " (UNC), " + join_names(bnp_names()) +
      " (BNP), or a parameter point -- " + param_spec_grammar() +
      "; network topology: " + join_names(apn_names()) + " (APN" + aliases +
      ")");
}

}  // namespace

std::vector<SchedulerPtr> make_bnp_schedulers() {
  std::vector<SchedulerPtr> out;
  for (const SchedulerRow& row : kSchedulers)
    if (row.cls == AlgoClass::kBNP) out.push_back(build(row));
  return out;
}

std::vector<SchedulerPtr> make_unc_and_bnp_schedulers() {
  std::vector<SchedulerPtr> out;
  for (const SchedulerRow& row : kSchedulers) out.push_back(build(row));
  return out;
}

std::vector<ApnSchedulerPtr> make_apn_schedulers() {
  std::vector<ApnSchedulerPtr> out;
  for (const ApnRow& row : kApnSchedulers)
    if (row.alias_of == nullptr) out.push_back(build(row));
  return out;
}

SchedulerPtr make_scheduler(const std::string& name) {
  if (ParamSpec::is_spec(name)) {
    const ParamSpec spec = ParamSpec::parse(name);
    return param_scheduler(spec.to_string(), spec);
  }
  if (const SchedulerRow* row = find_row(name)) return build(*row);
  throw unknown_name("scheduler", name);
}

ApnSchedulerPtr make_apn_scheduler(const std::string& name) {
  for (const ApnRow& row : kApnSchedulers)
    if (name == row.name) return build(row);
  throw unknown_name("APN scheduler", name);
}

std::optional<ParamSpec> param_spec_of(const std::string& name) {
  if (ParamSpec::is_spec(name)) return ParamSpec::parse(name);
  const SchedulerRow* row = find_row(name);
  if (row == nullptr) throw unknown_name("scheduler", name);
  if (const auto* spec = std::get_if<ParamSpec>(&row->how)) return *spec;
  return std::nullopt;
}

std::vector<std::string> bnp_names() { return names_of_class(AlgoClass::kBNP); }

std::vector<std::string> unc_names() { return names_of_class(AlgoClass::kUNC); }

std::vector<std::string> apn_names() {
  std::vector<std::string> out;
  for (const ApnRow& row : kApnSchedulers)
    if (row.alias_of == nullptr) out.emplace_back(row.name);
  return out;
}

}  // namespace tgs
