#include "tgs/sched/schedule_io.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tgs {

void write_schedule(std::ostream& os, const Schedule& s) {
  os << "tgssched1 " << s.graph().num_nodes() << ' ' << s.makespan() << '\n';
  for (NodeId n = 0; n < s.graph().num_nodes(); ++n) {
    if (!s.is_placed(n))
      throw std::invalid_argument("cannot serialize incomplete schedule");
    os << "task " << n << ' ' << s.proc(n) << ' ' << s.start(n) << '\n';
  }
}

std::string schedule_to_string(const Schedule& s) {
  std::ostringstream os;
  write_schedule(os, s);
  return os.str();
}

void save_schedule(const std::string& path, const Schedule& s) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for write: " + path);
  write_schedule(f, s);
}

}  // namespace tgs
