// APN schedule validation: everything validate_schedule checks, plus the
// message layer -- every cross-processor edge must have exactly one
// committed message and no same-processor edge may have one; each
// message's hops must follow the routing tree's route proc(u) -> proc(v)
// link by link, respect link exclusivity, depart after the producer
// finishes, and arrive before the consumer starts.
#pragma once

#include "tgs/net/net_schedule.h"
#include "tgs/sched/validate.h"

namespace tgs {

ValidationResult validate_net_schedule(const NetSchedule& ns);

}  // namespace tgs
