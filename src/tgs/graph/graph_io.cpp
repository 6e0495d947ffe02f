#include "tgs/graph/graph_io.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "tgs/util/swar.h"

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

// Byte classes of the field rules. Fields are split on ' ', '\t' and '\r'
// (kSep); a field also ends at a NUL, which ends a line's content, or at
// the line's '\n' (kStop). Integers follow strtoll within a line: leading
// isspace but '\n' (kSpace), an optional sign, base 10, overflow is an
// error.
constexpr unsigned char kSep = 1, kStop = 2, kSpace = 4;
constexpr std::array<unsigned char, 256> kClass = [] {
  std::array<unsigned char, 256> t{};
  for (const unsigned char c : {' ', '\t', '\r'}) t[c] |= kSep | kStop;
  t['\0'] |= kStop;
  t['\n'] |= kStop;
  for (const unsigned char c : {' ', '\t', '\v', '\f', '\r'}) t[c] |= kSpace;
  return t;
}();

bool is(char c, unsigned char cls) {
  return (kClass[static_cast<unsigned char>(c)] & cls) != 0;
}

// The reader walks the text with one cursor and no per-byte bounds test:
// it reads only lines that end in '\n', so every scan below stops at that
// byte at the latest. A final line without one is read from a copy that
// has it (see graph_from_string). Error messages quote the whole line.
class Reader {
 public:
  explicit Reader(std::size_t text_size) : text_size_(text_size) {}

  /// Reads the lines of [p, end), where end[-1] == '\n', until a record
  /// meets the header's counts.
  void read_lines(const char* p, const char* end) {
    end_ = end;
    while (p != end && !done_) {
      // The next line's start is found before this line's fields are
      // read, so reading them is off the chain from line to line.
      line_ = p;
      const char* nl = line_end(p, end);
      if (p != nl && *p != '#') {
        if (header_seen_)
          record(p, nl);
        else
          header(p);
      }
      p = nl + 1;
    }
  }

  TaskGraph finish() {
    if (!header_seen_) throw std::invalid_argument("missing tgs1 header");
    if (nodes_seen_ != n_ || edges_seen_ != m_)
      throw std::invalid_argument("truncated tgs1 stream");
    return b_.finalize();
  }

 private:
  /// The '\n' that ends the line at `p`.
  static const char* line_end(const char* p, const char* end) {
    for (; end - p >= 8; p += 8)
      if (const std::uint64_t m = swar::equal(swar::load(p), '\n'); m != 0)
        return p + swar::first(m);
    while (*p != '\n') ++p;
    return p;
  }

  // Header. Counts are parsed as 64-bit and validated before narrowing so
  // a giant (or corrupt) header fails loudly.
  void header(const char* p) {
    if (token(p) != "tgs1") fail("bad tgs1 header: ");
    const std::string_view name = token(p);
    if (name.empty()) fail("bad tgs1 header: ");
    const std::int64_t n64 = int64(p, "tgs1 header");
    const std::int64_t m64 = int64(p, "tgs1 header");
    if (n64 < 0 || n64 > static_cast<std::int64_t>(kNoNode - 1) || m64 < 0)
      fail("bad tgs1 header (counts): ");
    n_ = static_cast<NodeId>(n64);
    m_ = static_cast<std::size_t>(m64);
    b_ = TaskGraphBuilder(std::string(name));
    b_.reserve(std::min<std::size_t>(n_, text_size_ / kMinNodeRecord),
               std::min(m_, text_size_ / kMinEdgeRecord));
    header_seen_ = true;
  }

  void record(const char* p, const char* nl) {
    while (is(*p, kSep)) ++p;
    if (word(p, nl, "edge")) {
      const NodeId u = node_id(p, "edge");
      const NodeId v = node_id(p, "edge");
      const Cost c = int64(p, "edge");
      b_.add_edge(u, v, c);
      ++edges_seen_;
    } else if (word(p, nl, "node")) {
      const NodeId id = node_id(p, "node");
      const Cost w = int64(p, "node");
      const std::string_view label = token(p);  // optional
      if (id != nodes_seen_)
        throw std::invalid_argument("node ids must be dense and in order");
      b_.add_node(w, std::string(label));
      ++nodes_seen_;
    } else {
      fail("unknown record: ");
    }
    // Records after the header's counts are met are not read.
    done_ = nodes_seen_ == n_ && edges_seen_ == m_;
  }

  /// Whether the field at `p`, on a line ending at `nl`, is the four
  /// letters `w`; steps over it when it is. The same test as
  /// token(p) == w without scanning the field.
  static bool word(const char*& p, const char* nl, const char (&w)[5]) {
    if (nl - p < 4 || std::memcmp(p, w, 4) != 0 || !is(p[4], kStop))
      return false;
    p += 4;
    return true;
  }

  /// Next field, empty when the line's content is exhausted.
  static std::string_view token(const char*& p) {
    while (is(*p, kSep)) ++p;
    const char* start = p;
    while (!is(*p, kStop)) ++p;
    return {start, static_cast<std::size_t>(p - start)};
  }

  /// Next signed 64-bit integer; throws with `what` context on a missing
  /// or out-of-range field.
  std::int64_t int64(const char*& p, const char* what) const {
    const char* q = p;
    while (is(*q, kSpace)) ++q;
    const bool neg = *q == '-';
    if (*q == '-' || *q == '+') ++q;
    const char* const digits = q;
    std::uint64_t x = 0;
    for (; static_cast<unsigned>(*q - '0') < 10; ++q)
      x = x * 10 + static_cast<unsigned>(*q - '0');
    // Eighteen digits cannot overflow; longer runs are re-read with a
    // check per digit.
    if (q == digits || (q - digits > 18 && !fits(digits, q, neg, &x)))
      fail(std::string("bad ") + what + " line: ");
    p = q;
    return static_cast<std::int64_t>(neg ? 0 - x : x);
  }

  static bool fits(const char* p, const char* end, bool neg,
                   std::uint64_t* out) {
    const std::uint64_t limit =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
        (neg ? 1 : 0);
    std::uint64_t x = 0;
    for (; p != end; ++p) {
      const unsigned d = static_cast<unsigned>(*p - '0');
      if (x > limit / 10 || (x == limit / 10 && d > limit % 10)) return false;
      x = x * 10 + d;
    }
    *out = x;
    return true;
  }

  /// int64 narrowed to NodeId with an explicit range check: a node id that
  /// does not fit NodeId is a corrupt/hostile stream, never a wraparound.
  NodeId node_id(const char*& p, const char* what) const {
    const std::int64_t x = int64(p, what);
    if (x < 0 || x > static_cast<std::int64_t>(kNoNode - 1))
      fail(std::string("bad ") + what + " line (id out of range): ");
    return static_cast<NodeId>(x);
  }

  /// Throws `prefix` followed by the whole current line.
  [[noreturn]] void fail(std::string prefix) const {
    throw std::invalid_argument(prefix.append(line_, line_end(line_, end_)));
  }

  std::size_t text_size_;
  const char* end_ = nullptr;  // of the lines being read
  const char* line_ = nullptr;
  bool header_seen_ = false;
  bool done_ = false;
  NodeId n_ = 0;
  std::size_t m_ = 0;
  NodeId nodes_seen_ = 0;
  std::size_t edges_seen_ = 0;
  TaskGraphBuilder b_;
};

}  // namespace

TaskGraph graph_from_string(std::string_view text) {
  Reader r(text.size());
  const std::size_t body = text.rfind('\n') + 1;  // 0 when there is none
  r.read_lines(text.data(), text.data() + body);
  if (body != text.size()) {
    std::string last(text.substr(body));
    last.push_back('\n');
    r.read_lines(last.data(), last.data() + last.size());
  }
  return r.finish();
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
