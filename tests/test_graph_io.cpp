// Differential tests of the tgs1 reader: the single-pass graph_from_string
// and the counting-sort TaskGraphBuilder::finalize against the frozen
// istream reader and sort-based builder in reference_graph_io.h.
//
// A deterministic mutation fuzzer derives inputs from the graphs the
// golden snapshots schedule (the PSG peer set) and from generator output
// (RGNOS, FFT, Cholesky). For every input both readers must accept or
// reject alike with the same exception message, and an accepted input
// must give an equal graph: name, labels, weights, CSR rows, entry set,
// topological order and fingerprint. The one exception is a graph
// whose weights and costs sum to kTimeInf or more: the new builder must
// reject it, and the reference is not run, since its builder sums them
// with signed overflow.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "oracles.h"
#include "reference_graph_io.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgnos.h"
#include "tgs/gen/traced.h"
#include "tgs/graph/fingerprint.h"
#include "tgs/graph/graph_io.h"
#include "tgs/util/mem.h"
#include "tgs/util/rng.h"

namespace tgs {
namespace {

/// Rebuilds the reference graph through TaskGraphBuilder with every row
/// reversed (so finalize takes its sorting path) to fingerprint it.
TaskGraph rebuilt(const reference::ReferenceGraph& r) {
  TaskGraphBuilder b(r.name_);
  for (NodeId i = 0; i < r.num_nodes(); ++i)
    b.add_node(r.weights_[i], r.labels_.empty() ? "" : r.labels_[i]);
  for (NodeId u = r.num_nodes(); u-- > 0;) {
    const auto kids = r.children(u);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it)
      b.add_edge(u, it->node, it->cost);
  }
  return b.finalize();
}

template <typename Rows>
std::vector<Adj> row(const Rows& rows) {
  return std::vector<Adj>(rows.begin(), rows.end());
}

/// Equal graphs; returns the first difference, empty when equal.
std::string graph_diff(const TaskGraph& g, const reference::ReferenceGraph& r) {
  if (g.name() != r.name_) return "name";
  if (g.num_nodes() != r.num_nodes()) return "num_nodes";
  if (g.num_edges() != r.num_edges_) return "num_edges";
  if (g.total_weight() != r.total_weight_) return "total_weight";
  if (total_edge_cost(g) != r.total_edge_cost_) return "total_edge_cost";
  if (g.has_labels() != !r.labels_.empty()) return "has_labels";
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    if (g.weight(i) != r.weights_[i]) return "weight " + std::to_string(i);
    if (g.has_labels() && g.label(i) != r.labels_[i])
      return "label " + std::to_string(i);
    if (row(g.children(i)) != row(r.children(i)))
      return "children " + std::to_string(i);
    if (row(g.parents(i)) != row(r.parents(i)))
      return "parents " + std::to_string(i);
  }
  if (g.topological_order() != r.topo_) return "topological order";
  if (g.entry_nodes() != r.entries_) return "entry nodes";
  if (graph_fingerprint(g) != graph_fingerprint(rebuilt(r)))
    return "fingerprint";
  return "";
}

/// The sum of the node weights and edge costs reference::read_graph hands
/// its builder, in __int128 so it cannot overflow: the same record loop,
/// with the builder calls replaced by the sum. nullopt when a field does
/// not parse -- the reference then rejects the text before its builder
/// sums anything. A negative value, which may lower the sum, is rejected
/// by the reference's builder before its finalize runs.
std::optional<__int128> record_total(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::int64_t n = 0, m = 0;
  bool header = false;
  __int128 total = 0;
  try {
    while (!header && std::getline(is, line)) {
      if (line.empty() || line[0] == '#') continue;
      reference::LineScanner hs(line);
      hs.token();
      hs.token();
      n = hs.int64("tgs1 header");
      m = hs.int64("tgs1 header");
      header = true;
    }
    std::int64_t nodes = 0, edges = 0;
    while (std::getline(is, line)) {
      if (line.empty() || line[0] == '#') continue;
      reference::LineScanner ls(line);
      const std::string kind = ls.token();
      if (kind == "node") {
        ls.node_id("node");
        total += ls.int64("node");
        ++nodes;
      } else if (kind == "edge") {
        ls.node_id("edge");
        ls.node_id("edge");
        total += ls.int64("edge");
        ++edges;
      } else {
        return std::nullopt;
      }
      if (nodes == n && edges == m) break;
    }
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return total;
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
  int too_heavy = 0;  // rejected by the totals bound, reference not run
};

/// Parses `text` with both readers and checks they agree.
void expect_same(const std::string& text, Tally* tally) {
  std::string got_error, want_error;
  std::optional<TaskGraph> got;
  std::optional<reference::ReferenceGraph> want;
  try {
    got = graph_from_string(text);
  } catch (const std::invalid_argument& e) {
    got_error = e.what();
  }
  const std::optional<__int128> total = record_total(text);
  if (total && *total >= kTimeInf) {
    ASSERT_FALSE(got.has_value())
        << "input: " << testing::PrintToString(text);
    ++tally->too_heavy;
    return;
  }
  try {
    want = reference::graph_from_string(text);
  } catch (const std::invalid_argument& e) {
    want_error = e.what();
  }
  ASSERT_EQ(got.has_value(), want.has_value())
      << "input: " << testing::PrintToString(text) << "\nnew: " << got_error
      << "\nreference: " << want_error;
  if (!got) {
    ASSERT_EQ(got_error, want_error)
        << "input: " << testing::PrintToString(text);
    ++tally->rejected;
    return;
  }
  ASSERT_EQ(graph_diff(*got, *want), "")
      << "input: " << testing::PrintToString(text);
  ++tally->accepted;
}

// ----------------------------------------------------------- mutations --

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(start, end - start));
    start = end;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

// Overflows, int64 and NodeId limits, and values that fit a weight but
// not a node id.
const char* const kHuge[] = {
    "9223372036854775807", "9223372036854775808", "-9223372036854775809",
    "99999999999999999999", "18446744073709551616", "-9223372036854775808",
    "000000000000000000000000000042", "4294967295", "4294967296",
    "1099511627776", "+4294967294"};

/// Replaces one numeric field of a random line with a huge number.
void put_huge_number(std::vector<std::string>& lines, Rng& rng) {
  if (lines.empty()) return;
  std::string& line =
      lines[static_cast<std::size_t>(rng.uniform_int(0, lines.size() - 1))];
  // Field spans: runs of digits and signs.
  const auto numeric = [](char c) {
    return (c >= '0' && c <= '9') || c == '-' || c == '+';
  };
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < line.size();) {
    if (!numeric(line[i])) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < line.size() && numeric(line[i])) ++i;
    spans.emplace_back(start, i - start);
  }
  if (spans.empty()) return;
  const std::size_t k =
      static_cast<std::size_t>(rng.uniform_int(0, spans.size() - 1));
  line.replace(spans[k].first, spans[k].second,
               kHuge[rng.uniform_int(0, std::size(kHuge) - 1)]);
}

std::string mutate(const std::string& seed, Rng& rng) {
  std::string text = seed;
  const int rounds = static_cast<int>(rng.uniform_int(1, 3));
  for (int r = 0; r < rounds; ++r) {
    const auto at = [&] {
      return static_cast<std::size_t>(rng.uniform_int(0, text.size()));
    };
    switch (rng.uniform_int(0, 5)) {
      case 0: {  // flip one byte
        if (text.empty()) break;
        const std::size_t i = at() % text.size();
        const int bit = static_cast<int>(rng.uniform_int(0, 7));
        text[i] = rng.bernoulli(0.5)
                      ? static_cast<char>(text[i] ^ (1 << bit))
                      : static_cast<char>(rng.uniform_int(0, 255));
        break;
      }
      case 1: {  // insert a character the readers treat specially
        static const char kSpecial[] = {'+', '-', '\v', '\r', '\0', '#',
                                        ' ', '\t', '\f', '\n', '0', '9'};
        std::size_t i = at();
        if (rng.bernoulli(0.3)) {  // at a line start
          const std::size_t nl = text.rfind('\n', i == 0 ? 0 : i - 1);
          i = nl == std::string::npos ? 0 : nl + 1;
        }
        text.insert(i, 1,
                    kSpecial[rng.uniform_int(0, std::size(kSpecial) - 1)]);
        break;
      }
      case 2:  // truncate
        text.resize(at());
        break;
      case 3: {  // duplicate a line
        std::vector<std::string> lines = split_lines(text);
        if (lines.empty()) break;
        const std::size_t i =
            static_cast<std::size_t>(rng.uniform_int(0, lines.size() - 1));
        const std::size_t to =
            static_cast<std::size_t>(rng.uniform_int(0, lines.size()));
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(to), lines[i]);
        text = join(lines);
        break;
      }
      case 4: {  // swap two edge lines
        std::vector<std::string> lines = split_lines(text);
        std::vector<std::size_t> edges;
        for (std::size_t i = 0; i < lines.size(); ++i)
          if (lines[i].rfind("edge", 0) == 0) edges.push_back(i);
        if (edges.size() < 2) break;
        const auto pick = [&] {
          return edges[static_cast<std::size_t>(
              rng.uniform_int(0, edges.size() - 1))];
        };
        const std::size_t a = pick();
        const std::size_t b = pick();
        std::swap(lines[a], lines[b]);
        text = join(lines);
        break;
      }
      case 5: {
        std::vector<std::string> lines = split_lines(text);
        put_huge_number(lines, rng);
        text = join(lines);
        break;
      }
    }
  }
  return text;
}

/// Graphs in their written form, plus hand-written texts that exercise
/// every rule of the format.
std::vector<std::string> seeds() {
  std::vector<std::string> out;
  for (const PsgEntry& e : peer_set_graphs())
    out.push_back(graph_to_string(e.graph));
  for (const std::uint64_t seed : {1, 2}) {
    RgnosParams p;
    p.num_nodes = 40;
    p.seed = seed;
    out.push_back(graph_to_string(rgnos_graph(p)));
  }
  out.push_back(graph_to_string(fft_graph(8, 1.0)));
  out.push_back(graph_to_string(cholesky_graph(5, 1.0)));
  const char* const kHandWritten[] = {
      "# comment\ntgs1 mini 2 1\nnode 0 4\n# mid\nnode 1 6\nedge 0 1 3\n",
      "tgs1 crlf 2 1\r\nnode 0 4 a\r\nnode 1 6\r\n\r\nedge 0 1 3\r\n",
      "\n\ntgs1 t 3 2 trailing header fields\nnode 0 +4 first extra\n"
      "node 1 \t 5\nnode 2 6\nedge 0 2 7 extra\nedge 1 2 -0\n"
      "node 3 1\nedge 9 9 9\n",
      "tgs1 labels 2 1\nnode 0 5x\nnode 1 6\vtab\nedge 0 1 0009",
      "tgs1 empty 0 0\n",
      "tgs1 empty 0 0\nnode 0 1\n",
      "tgs1 big 1 0\nnode 0 9223372036854775807\n",
      // Weights plus costs one below kTimeInf, and exactly kTimeInf.
      "tgs1 heavy 2 1\nnode 0 1152921504606846973\nnode 1 1\nedge 0 1 0\n",
      "tgs1 heavy 2 1\nnode 0 1152921504606846973\nnode 1 1\nedge 0 1 1\n",
      "tgs1 neg 1 0\nnode 0 -9223372036854775808\n",
      "tgs1 dup 2 2\nnode 0 1\nnode 1 1\nedge 0 1 1\nedge 0 1 2\n",
      "tgs1 cyc 3 3\nnode 0 1\nnode 1 1\nnode 2 1\nedge 2 0 1\nedge 0 1 1\n"
      "edge 1 2 1\n",
      "tgs1 unsorted 4 4\nnode 0 1\nnode 1 1\nnode 2 1\nnode 3 1\n"
      "edge 0 3 1\nedge 2 3 2\nedge 0 1 3\nedge 1 3 4\n",
      "tgs1 self 1 1\nnode 0 1\nedge 0 0 1\n",
      "tgs1 g 1 0\nnode 4294967295 5\n",
      "tgs1 g 4294967295 0\n",
      "tgs1\n",
      "tgs1 g\n",
      "tgs1 g 1\n",
      "tgs1 g \v1 \f0\nnode\t0\t1",
      "tgs1 g 1 0\nnode 0\n",
      "tgs1 g 1 0\nnode 0 +-1\n",
      "tgs1 g 2 1\nnode 0 1\nedge 0 1 1\nnode 1 1\n",
      "tgs2 g 1 0\n",
      "#only a comment\n",
      "",
  };
  for (const char* t : kHandWritten) out.emplace_back(t);
  // A NUL ends a line's content; the bytes after it are kept in messages.
  static const char kNul[] =
      "tgs1 nul 2 1\nnode 0 5\0 99\nnode 1 6\nedge 0 1 3\0junk\n\0x\n";
  out.emplace_back(kNul, sizeof(kNul) - 1);
  static const char kNulHeader[] = "tgs1 g\0 1 0\nnode 0 1\n";
  out.emplace_back(kNulHeader, sizeof(kNulHeader) - 1);
  return out;
}

TEST(GraphIoDifferential, SeedsMatchReference) {
  Tally tally;
  for (const std::string& s : seeds()) {
    SCOPED_TRACE(testing::PrintToString(s.substr(0, 40)));
    expect_same(s, &tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.accepted, 10);
  EXPECT_GT(tally.rejected, 10);
  EXPECT_EQ(tally.too_heavy, 2);  // "big" and the second "heavy"
}

TEST(GraphIoDifferential, MutationsMatchReference) {
  const std::vector<std::string> corpus = seeds();
  Rng rng(20260514);
  Tally tally;
  constexpr int kPerSeed = 300;
  for (const std::string& s : corpus) {
    for (int i = 0; i < kPerSeed; ++i) {
      expect_same(mutate(s, rng), &tally);
      if (HasFatalFailure()) return;
    }
  }
  // The mutations must explore both sides of the accept/reject line.
  EXPECT_GT(tally.accepted, 500);
  EXPECT_GT(tally.rejected, 2000);
  EXPECT_GT(tally.too_heavy, 0);
  RecordProperty("accepted", tally.accepted);
  RecordProperty("rejected", tally.rejected);
  RecordProperty("too_heavy", tally.too_heavy);
}

TEST(GraphIoDifferential, GeneratorGraphsRoundTripExactly) {
  RgnosParams p;
  p.num_nodes = 500;
  p.seed = 7;
  for (const TaskGraph& g :
       {rgnos_graph(p), fft_graph(64, 1.0), cholesky_graph(30, 1.0)}) {
    const std::string text = graph_to_string(g);
    const TaskGraph h = graph_from_string(text);
    EXPECT_EQ(graph_fingerprint(h), graph_fingerprint(g));
    EXPECT_EQ(graph_to_string(h), text);
    EXPECT_EQ(graph_diff(h, reference::graph_from_string(text)), "");
  }
}

// --------------------------------------------------------------- builder --

TEST(TaskGraphBuilder, EdgeOrderDoesNotChangeTheGraph) {
  RgnosParams p;
  p.num_nodes = 120;
  p.seed = 11;
  const TaskGraph g = rgnos_graph(p);
  std::vector<std::pair<NodeId, Adj>> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adj& c : g.children(u)) edges.push_back({u, c});
  Rng rng(5);
  std::shuffle(edges.begin(), edges.end(), rng);
  TaskGraphBuilder b(g.name());
  for (NodeId i = 0; i < g.num_nodes(); ++i) b.add_node(g.weight(i));
  for (const auto& [u, c] : edges) b.add_edge(u, c.node, c.cost);
  const TaskGraph h = b.finalize();
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(row(h.children(i)), row(g.children(i)));
    EXPECT_EQ(row(h.parents(i)), row(g.parents(i)));
  }
  EXPECT_EQ(h.topological_order(), g.topological_order());
  EXPECT_EQ(graph_fingerprint(h), graph_fingerprint(g));
}

// ------------------------------------------------------- bounded reserve --

// A header's counts are a claim, not a budget: the reader sizes its arrays
// by what the text could hold, so a 40-byte graph claiming 2^31 edges is
// rejected as truncated without a multi-GB reservation.
TEST(GraphIo, HeaderCountsDoNotSizeAllocations) {
  for (const char* text : {"tgs1 g 2 2147483648\nnode 0 1\nnode 1 1\n",
                           "tgs1 g 4294967294 0\nnode 0 1\nnode 1 1\n"}) {
    AllocMeter meter;
    try {
      graph_from_string(text);
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "truncated tgs1 stream");
    }
    EXPECT_LT(meter.bytes(), 1u << 20) << text;
  }
}

}  // namespace
}  // namespace tgs
