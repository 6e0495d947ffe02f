#include "tgs/graph/graph_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace tgs {

void write_graph(std::ostream& os, const TaskGraph& g) {
  os << "tgs1 " << (g.name().empty() ? "graph" : g.name()) << ' '
     << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    os << "node " << i << ' ' << g.weight(i);
    if (g.has_labels()) os << ' ' << g.label(i);
    os << '\n';
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adj& c : g.children(u))
      os << "edge " << u << ' ' << c.node << ' ' << c.cost << '\n';
}

std::string graph_to_string(const TaskGraph& g) {
  std::ostringstream os;
  write_graph(os, g);
  return os.str();
}

namespace {

// Shortest records a tgs1 text can hold ("node 0 1\n", "edge 0 1 0\n"): a
// header's counts are clamped by what the text could possibly contain
// before they size any allocation.
constexpr std::size_t kMinNodeRecord = 9;
constexpr std::size_t kMinEdgeRecord = 11;

// Field cursor over one line. Fields are split on ' ', '\t' and '\r';
// integers follow strtoll (leading isspace, optional sign, base 10,
// overflow is an error). A NUL ends the line's content: no rule below
// steps over one. Error messages quote the whole line.
class Fields {
 public:
  explicit Fields(std::string_view line)
      : line_(line), p_(line.data()), end_(line.data() + line.size()) {}

  /// Next field, empty when the line is exhausted.
  std::string_view token() {
    while (p_ != end_ && is_sep(*p_)) ++p_;
    const char* start = p_;
    while (p_ != end_ && *p_ != '\0' && !is_sep(*p_)) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  /// Next signed 64-bit integer; throws with `what` context on a missing
  /// or out-of-range field.
  std::int64_t int64(const char* what) {
    const char* q = p_;
    while (q != end_ && is_c_space(*q)) ++q;
    const bool neg = q != end_ && *q == '-';
    if (q != end_ && (*q == '-' || *q == '+')) ++q;
    const std::uint64_t limit =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
        (neg ? 1 : 0);
    const char* digits = q;
    std::uint64_t x = 0;
    bool overflow = false;
    for (; q != end_ && static_cast<unsigned>(*q - '0') < 10; ++q) {
      const unsigned d = static_cast<unsigned>(*q - '0');
      overflow |= x > limit / 10 || (x == limit / 10 && d > limit % 10);
      x = x * 10 + d;
    }
    if (q == digits || overflow) fail(std::string("bad ") + what + " line: ");
    p_ = q;
    return static_cast<std::int64_t>(neg ? 0 - x : x);
  }

  /// int64 narrowed to NodeId with an explicit range check: a node id that
  /// does not fit NodeId is a corrupt/hostile stream, never a wraparound.
  NodeId node_id(const char* what) {
    const std::int64_t x = int64(what);
    if (x < 0 || x > static_cast<std::int64_t>(kNoNode - 1))
      fail(std::string("bad ") + what + " line (id out of range): ");
    return static_cast<NodeId>(x);
  }

  /// Throws `prefix` followed by the whole line.
  [[noreturn]] void fail(std::string prefix) const {
    throw std::invalid_argument(prefix.append(line_));
  }

 private:
  static bool is_sep(char c) { return c == ' ' || c == '\t' || c == '\r'; }
  static bool is_c_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  std::string_view line_;
  const char* p_;
  const char* end_;
};

/// Next '\n'-terminated line of `text` starting at `*pos` (the final line
/// may lack its '\n'); false at the end of the text.
bool next_line(std::string_view text, std::size_t* pos,
               std::string_view* line) {
  if (*pos == text.size()) return false;
  const char* start = text.data() + *pos;
  const std::size_t left = text.size() - *pos;
  const void* nl = std::memchr(start, '\n', left);
  const std::size_t len =
      nl == nullptr ? left : static_cast<const char*>(nl) - start;
  *line = {start, len};
  *pos += nl == nullptr ? len : len + 1;
  return true;
}

bool skipped(std::string_view line) { return line.empty() || line[0] == '#'; }

}  // namespace

TaskGraph graph_from_string(std::string_view text) {
  std::size_t pos = 0;
  std::string_view line;
  while (next_line(text, &pos, &line) && skipped(line)) {
  }
  if (skipped(line)) throw std::invalid_argument("missing tgs1 header");

  // Header. Counts are parsed as 64-bit and validated before narrowing so
  // a giant (or corrupt) header fails loudly.
  Fields hs(line);
  if (hs.token() != "tgs1") hs.fail("bad tgs1 header: ");
  const std::string_view name = hs.token();
  if (name.empty()) hs.fail("bad tgs1 header: ");
  const std::int64_t n64 = hs.int64("tgs1 header");
  const std::int64_t m64 = hs.int64("tgs1 header");
  if (n64 < 0 || n64 > static_cast<std::int64_t>(kNoNode - 1) || m64 < 0)
    hs.fail("bad tgs1 header (counts): ");
  const NodeId n = static_cast<NodeId>(n64);
  const std::size_t m = static_cast<std::size_t>(m64);

  TaskGraphBuilder b{std::string(name)};
  b.reserve(std::min<std::size_t>(n, text.size() / kMinNodeRecord),
            std::min(m, text.size() / kMinEdgeRecord));
  NodeId nodes_seen = 0;
  std::size_t edges_seen = 0;
  while (next_line(text, &pos, &line)) {
    if (skipped(line)) continue;
    Fields f(line);
    const std::string_view kind = f.token();
    if (kind == "node") {
      const NodeId id = f.node_id("node");
      const Cost w = f.int64("node");
      const std::string_view label = f.token();  // optional
      if (id != nodes_seen)
        throw std::invalid_argument("node ids must be dense and in order");
      b.add_node(w, std::string(label));
      ++nodes_seen;
    } else if (kind == "edge") {
      const NodeId u = f.node_id("edge");
      const NodeId v = f.node_id("edge");
      const Cost c = f.int64("edge");
      b.add_edge(u, v, c);
      ++edges_seen;
    } else {
      f.fail("unknown record: ");
    }
    if (nodes_seen == n && edges_seen == m) break;
  }
  if (nodes_seen != n || edges_seen != m)
    throw std::invalid_argument("truncated tgs1 stream");
  return b.finalize();
}

void save_graph(const std::string& path, const TaskGraph& g) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for write: " + path);
  write_graph(f, g);
}

TaskGraph load_graph(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open for read: " + path);
  std::ostringstream text;
  text << f.rdbuf();
  return graph_from_string(text.str());
}

}  // namespace tgs
