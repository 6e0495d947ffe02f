// Tests for schedule serialization (sched/schedule_io.h).
#include <gtest/gtest.h>

#include "oracles.h"
#include "tgs/gen/psg.h"
#include "tgs/harness/registry.h"
#include "tgs/sched/schedule_io.h"
#include "tgs/sched/validate.h"

namespace tgs {
namespace {

TEST(ScheduleIo, RoundTrip) {
  const TaskGraph g = psg_canonical9();
  const Schedule s = make_scheduler("MCP")->run(g, {});
  const Schedule t = schedule_from_string(schedule_to_string(s), g);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(t.proc(n), s.proc(n));
    EXPECT_EQ(t.start(n), s.start(n));
  }
  EXPECT_EQ(t.makespan(), s.makespan());
  EXPECT_TRUE(validate_schedule(t).ok);
}

TEST(ScheduleIo, RoundTripEveryAlgorithm) {
  const TaskGraph g = psg_irregular13();
  for (const auto& algo : make_unc_and_bnp_schedulers()) {
    const Schedule s = algo->run(g, {});
    const Schedule t = schedule_from_string(schedule_to_string(s), g);
    EXPECT_EQ(t.makespan(), s.makespan()) << algo->name();
  }
}

TEST(ScheduleIo, RejectsIncompleteSchedule) {
  const TaskGraph g = psg_canonical9();
  Schedule s(g);
  s.place(0, 0, 0);
  EXPECT_THROW(schedule_to_string(s), std::invalid_argument);
}

TEST(ScheduleIo, RejectsWrongGraph) {
  const TaskGraph g = psg_canonical9();
  const Schedule s = make_scheduler("MCP")->run(g, {});
  const std::string text = schedule_to_string(s);
  const TaskGraph other = psg_irregular13();
  EXPECT_THROW(schedule_from_string(text, other), std::invalid_argument);
}

TEST(ScheduleIo, RejectsMalformed) {
  const TaskGraph g = psg_canonical9();
  EXPECT_THROW(schedule_from_string("garbage", g), std::invalid_argument);
  EXPECT_THROW(schedule_from_string("tgssched1 9 100\ntask 0 0 0\n", g),
               std::invalid_argument);  // truncated
  // Overlapping placements are rejected by Schedule::place.
  const std::string overlap =
      "tgssched1 9 100\n"
      "task 0 0 0\ntask 1 0 1\ntask 2 0 2\ntask 3 0 3\ntask 4 0 4\n"
      "task 5 0 5\ntask 6 0 6\ntask 7 0 7\ntask 8 0 8\n";
  EXPECT_THROW(schedule_from_string(overlap, g), std::logic_error);
}

TEST(ScheduleIo, CommentsAndBlankLinesSkipped) {
  const TaskGraph g = psg_canonical9();
  const Schedule s = make_scheduler("HLFET")->run(g, {});
  std::string text = "# archived schedule\n\n" + schedule_to_string(s);
  const Schedule t = schedule_from_string(text, g);
  EXPECT_EQ(t.makespan(), s.makespan());
}

}  // namespace
}  // namespace tgs
