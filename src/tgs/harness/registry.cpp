#include "tgs/harness/registry.h"

#include <stdexcept>
#include <variant>

#include "tgs/apn/bsa.h"
#include "tgs/apn/bu.h"
#include "tgs/apn/dls_apn.h"
#include "tgs/apn/mh.h"
#include "tgs/bnp/last.h"
#include "tgs/param/param_scheduler.h"
#include "tgs/unc/dcp.h"
#include "tgs/unc/dsc.h"
#include "tgs/unc/md.h"

namespace tgs {

namespace {

template <typename Ptr, typename S>
Ptr construct() {
  return std::make_unique<S>();
}

/// A fully-connected-machine algorithm: either a point of the
/// parameterized core (docs/parameterized.md proves each one byte-identical
/// to the original standalone implementation) or the constructor of one of
/// the four algorithms no point expresses.
struct SchedulerRow {
  const char* name;
  AlgoClass cls;
  std::variant<ParamSpec, SchedulerPtr (*)()> how;
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
    {"DSC", AlgoClass::kUNC, construct<SchedulerPtr, DscScheduler>},
    {"MD", AlgoClass::kUNC, construct<SchedulerPtr, MdScheduler>},
    {"DCP", AlgoClass::kUNC, construct<SchedulerPtr, DcpScheduler>},
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
    {"LAST", AlgoClass::kBNP, construct<SchedulerPtr, LastScheduler>},
};

struct ApnRow {
  const char* name;
  ApnSchedulerPtr (*make)();
  // The listed name an alias row stands for. Lookup accepts alias rows;
  // the lists and name lists leave them out.
  const char* alias_of = nullptr;
};

constexpr ApnRow kApnSchedulers[] = {
    {"MH", construct<ApnSchedulerPtr, MhScheduler>},
    {"DLS", construct<ApnSchedulerPtr, DlsApnScheduler>},
    {"BU", construct<ApnSchedulerPtr, BuScheduler>},
    {"BSA", construct<ApnSchedulerPtr, BsaScheduler>},
    {"DLS-APN", construct<ApnSchedulerPtr, DlsApnScheduler>, "DLS"},
};

SchedulerPtr build(const SchedulerRow& row) {
  if (const auto* spec = std::get_if<ParamSpec>(&row.how))
    return std::make_unique<ParamScheduler>(*spec, row.name);
  return std::get<SchedulerPtr (*)()>(row.how)();
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
    if (row.alias_of == nullptr) out.push_back(row.make());
  return out;
}

SchedulerPtr make_scheduler(const std::string& name) {
  if (ParamSpec::is_spec(name))
    return std::make_unique<ParamScheduler>(ParamSpec::parse(name));
  for (const SchedulerRow& row : kSchedulers)
    if (name == row.name) return build(row);
  throw unknown_name("scheduler", name);
}

ApnSchedulerPtr make_apn_scheduler(const std::string& name) {
  for (const ApnRow& row : kApnSchedulers)
    if (name == row.name) return row.make();
  throw unknown_name("APN scheduler", name);
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
