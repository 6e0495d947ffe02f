// Registry of the paper's 15 scheduling algorithms (paper §4):
//   BNP: HLFET, ISH, MCP, ETF, DLS, LAST
//   UNC: EZ, LC, DSC, MD, DCP
//   APN: MH, DLS, BU, BSA
// registry.cpp holds them as one table per scheduler base; every function
// below reads that table.
#pragma once

#include <string>
#include <vector>

#include "tgs/apn/apn_common.h"
#include "tgs/sched/scheduler.h"

namespace tgs {

/// Fresh instances of the six BNP algorithms, in the paper's order.
std::vector<SchedulerPtr> make_bnp_schedulers();

/// All eleven fully-connected-machine algorithms (UNC then BNP, as the
/// paper's Table 1 lists them).
std::vector<SchedulerPtr> make_unc_and_bnp_schedulers();

/// Fresh instances of the four APN algorithms.
std::vector<ApnSchedulerPtr> make_apn_schedulers();

/// Lookup by table name ("MCP", "DCP", ...) or by a parameterized-scheduler
/// spec "param:<metric>/<ready>/<insertion>[/<cluster>]" (see
/// src/tgs/param/param_spec.h for the token grammar); builds only the
/// scheduler asked for. Throws std::invalid_argument for unknown names;
/// the message of either lookup enumerates all 15 names, the DLS-APN alias
/// and the param: grammar. APN names: "MH", "DLS-APN"/"DLS", "BU", "BSA".
SchedulerPtr make_scheduler(const std::string& name);
ApnSchedulerPtr make_apn_scheduler(const std::string& name);

std::vector<std::string> bnp_names();
std::vector<std::string> unc_names();
std::vector<std::string> apn_names();

}  // namespace tgs
