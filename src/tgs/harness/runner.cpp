#include "tgs/harness/runner.h"

#include "tgs/net/net_validate.h"
#include "tgs/sched/metrics.h"
#include "tgs/sched/validate.h"
#include "tgs/util/timer.h"

namespace tgs {

namespace {

RunResult measure(const Scheduler& algo, const TaskGraph& g,
                  const SchedOptions& opt, SchedWorkspace* ws,
                  std::optional<Schedule>* kept) {
  RunResult r;
  r.algo = algo.name();
  Timer timer;
  Schedule s = ws != nullptr ? algo.run(g, opt, *ws) : algo.run(g, opt);
  r.seconds = timer.seconds();
  r.length = s.makespan();
  r.procs_used = s.procs_used();
  const ValidationResult v = validate_schedule(s, opt.num_procs);
  r.valid = v.ok;
  r.error = v.error;
  r.nsl = normalized_schedule_length(g, r.length);
  if (kept != nullptr) kept->emplace(std::move(s));
  return r;
}

RunResult measure_apn(const ApnScheduler& algo, const TaskGraph& g,
                      const RoutingTable& routes, SchedWorkspace* ws) {
  RunResult r;
  r.algo = algo.name();
  Timer timer;
  const NetSchedule ns =
      ws != nullptr ? algo.run(g, routes, *ws) : algo.run(g, routes);
  r.seconds = timer.seconds();
  r.length = ns.makespan();
  r.procs_used = ns.tasks().procs_used();
  const ValidationResult v = validate_net_schedule(ns);
  r.valid = v.ok;
  r.error = v.error;
  r.nsl = normalized_schedule_length(g, r.length);
  return r;
}

}  // namespace

RunResult run_scheduler(const Scheduler& algo, const TaskGraph& g,
                        const SchedOptions& opt) {
  return measure(algo, g, opt, nullptr, nullptr);
}

RunResult run_scheduler(const Scheduler& algo, const TaskGraph& g,
                        const SchedOptions& opt, SchedWorkspace& ws,
                        std::optional<Schedule>* kept) {
  return measure(algo, g, opt, &ws, kept);
}

RunResult run_apn_scheduler(const ApnScheduler& algo, const TaskGraph& g,
                            const RoutingTable& routes) {
  return measure_apn(algo, g, routes, nullptr);
}

RunResult run_apn_scheduler(const ApnScheduler& algo, const TaskGraph& g,
                            const RoutingTable& routes, SchedWorkspace& ws) {
  return measure_apn(algo, g, routes, &ws);
}

}  // namespace tgs
