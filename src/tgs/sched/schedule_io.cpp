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

Schedule read_schedule(std::istream& is, const TaskGraph& g) {
  std::string line, magic;
  NodeId count = 0;
  Time makespan = 0;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream hs(line);
    if (!(hs >> magic >> count >> makespan) || magic != "tgssched1")
      throw std::invalid_argument("bad tgssched1 header: " + line);
    break;
  }
  if (magic != "tgssched1")
    throw std::invalid_argument("missing tgssched1 header");
  if (count != g.num_nodes())
    throw std::invalid_argument("schedule/graph node count mismatch");

  Schedule s(g);
  NodeId seen = 0;
  while (seen < count && std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    NodeId n;
    ProcId p;
    Time start;
    if (!(ls >> kind >> n >> p >> start) || kind != "task")
      throw std::invalid_argument("bad task line: " + line);
    if (n >= count) throw std::invalid_argument("task id out of range");
    s.place(n, p, start);  // throws on double placement / overlap
    ++seen;
  }
  if (seen != count) throw std::invalid_argument("truncated tgssched1 stream");
  return s;
}

Schedule schedule_from_string(const std::string& text, const TaskGraph& g) {
  std::istringstream is(text);
  return read_schedule(is, g);
}

void save_schedule(const std::string& path, const Schedule& s) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for write: " + path);
  write_schedule(f, s);
}

}  // namespace tgs
