// Tests for the scheduling-as-a-service subsystem: graph fingerprints,
// the JSON parser, the schedule cache, the wire protocol, and an
// in-process daemon exercised end-to-end over real unix sockets --
// including the acceptance check that served results are byte-identical
// to direct Scheduler::run / ApnScheduler::run calls.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "oracles.h"
#include "tgs/exec/jsonl.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgnos.h"
#include "tgs/graph/fingerprint.h"
#include "tgs/graph/graph_io.h"
#include "tgs/harness/registry.h"
#include "tgs/net/routing.h"
#include "tgs/net/topology.h"
#include "tgs/sched/schedule_io.h"
#include "tgs/serve/cache.h"
#include "tgs/serve/json.h"
#include "tgs/serve/protocol.h"
#include "tgs/serve/server.h"
#include "tgs/serve/socket.h"
#include "tgs/serve/stats.h"
#include "tgs/util/names.h"

namespace tgs {
namespace {

TaskGraph small_graph() { return psg_canonical9(); }

TaskGraph random_graph(std::uint64_t seed, NodeId nodes = 60) {
  RgnosParams p;
  p.num_nodes = nodes;
  p.ccr = 1.0;
  p.parallelism = 3;
  p.seed = seed;
  return rgnos_graph(p);
}

// ------------------------------------------------------------ fingerprint --

TEST(Fingerprint, EqualGraphsHashEqual) {
  const TaskGraph a = random_graph(7);
  const TaskGraph b = random_graph(7);
  EXPECT_EQ(graph_fingerprint(a), graph_fingerprint(b));
  EXPECT_EQ(graph_fingerprint(a).hex(), graph_fingerprint(b).hex());
  EXPECT_EQ(graph_fingerprint(a).hex().size(), 32u);
}

TEST(Fingerprint, ValuesArePinned) {
  // Fingerprints are cache keys, and journals written by earlier daemons
  // store them: the hash of a fixed graph must never move.
  EXPECT_EQ(graph_fingerprint(small_graph()).hex(),
            "167ff2283c05561d494c4983b8004543");
  EXPECT_EQ(graph_fingerprint(graph_from_string(
                                  "tgs1 g 4 3\n"
                                  "node 0 5 a\nnode 1 6 b\nnode 2 7 c\n"
                                  "node 3 8 d\n"
                                  "edge 0 1 2\nedge 0 2 3\nedge 1 3 4\n"))
                .hex(),
            "0be73ca8803d707bb368f94ee27da4d3");
}

TEST(Fingerprint, FileLineOrderAndLabelsDoNotMatter) {
  // The same weighted DAG written three ways: original; the legal line
  // reorderings of a tgs1 file (edge lines permuted and interleaved --
  // node ids are dense-in-order by the format, so node lines cannot
  // move); and with the graph renamed + node labels rewritten. All three
  // must fingerprint identically.
  const std::string original =
      "tgs1 g 4 3\n"
      "node 0 5 a\nnode 1 6 b\nnode 2 7 c\nnode 3 8 d\n"
      "edge 0 1 2\nedge 0 2 3\nedge 1 3 4\n";
  const std::string reordered =
      "tgs1 g 4 3\n"
      "node 0 5 a\nnode 1 6 b\nnode 2 7 c\n"
      "edge 0 2 3\nedge 0 1 2\nnode 3 8 d\nedge 1 3 4\n";
  const std::string relabeled =
      "tgs1 renamed 4 3\n"
      "node 0 5 x1\nnode 1 6 x2\nnode 2 7 x3\nnode 3 8 x4\n"
      "edge 0 1 2\nedge 0 2 3\nedge 1 3 4\n";
  const GraphFingerprint fp = graph_fingerprint(graph_from_string(original));
  EXPECT_EQ(fp, graph_fingerprint(graph_from_string(reordered)));
  EXPECT_EQ(fp, graph_fingerprint(graph_from_string(relabeled)));
}

TEST(Fingerprint, AnyContentPerturbationChangesTheHash) {
  const std::string base =
      "tgs1 g 4 3\n"
      "node 0 5\nnode 1 6\nnode 2 7\nnode 3 8\n"
      "edge 0 1 2\nedge 0 2 3\nedge 1 3 4\n";
  const GraphFingerprint fp = graph_fingerprint(graph_from_string(base));

  const auto fp_of = [](const std::string& text) {
    return graph_fingerprint(graph_from_string(text));
  };
  // Node weight changed.
  EXPECT_NE(fp, fp_of("tgs1 g 4 3\n"
                      "node 0 5\nnode 1 9\nnode 2 7\nnode 3 8\n"
                      "edge 0 1 2\nedge 0 2 3\nedge 1 3 4\n"));
  // Edge cost changed.
  EXPECT_NE(fp, fp_of("tgs1 g 4 3\n"
                      "node 0 5\nnode 1 6\nnode 2 7\nnode 3 8\n"
                      "edge 0 1 9\nedge 0 2 3\nedge 1 3 4\n"));
  // Edge moved to a different pair.
  EXPECT_NE(fp, fp_of("tgs1 g 4 3\n"
                      "node 0 5\nnode 1 6\nnode 2 7\nnode 3 8\n"
                      "edge 0 1 2\nedge 0 3 3\nedge 1 3 4\n"));
  // Edge removed.
  EXPECT_NE(fp, fp_of("tgs1 g 4 2\n"
                      "node 0 5\nnode 1 6\nnode 2 7\nnode 3 8\n"
                      "edge 0 1 2\nedge 0 2 3\n"));
  // Extra node.
  EXPECT_NE(fp, fp_of("tgs1 g 5 3\n"
                      "node 0 5\nnode 1 6\nnode 2 7\nnode 3 8\nnode 4 1\n"
                      "edge 0 1 2\nedge 0 2 3\nedge 1 3 4\n"));
}

TEST(Fingerprint, RandomGraphsAreDistinct) {
  // Not a collision proof, just a sanity sweep: 100 different generator
  // seeds must give 100 different fingerprints.
  std::vector<std::string> seen;
  for (std::uint64_t s = 1; s <= 100; ++s)
    seen.push_back(graph_fingerprint(random_graph(s, 30)).hex());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

// ------------------------------------------------------------------- json --

TEST(Json, ParsesScalarsAndNesting) {
  const JsonValue v = json_parse(
      R"({"s":"a\nb\u0041","n":-2.5e2,"i":7,"t":true,"f":false,"z":null,)"
      R"("arr":[1,[2]],"obj":{"k":"v"}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get_string("s", ""), "a\nbA");
  EXPECT_EQ(v.get_number("n", 0), -250.0);
  EXPECT_EQ(v.get_number("i", 0), 7.0);
  EXPECT_TRUE(v.get_bool("t", false));
  EXPECT_FALSE(v.get_bool("f", true));
  EXPECT_TRUE(v.find("z")->is_null());
  // Arrays parse but keep no elements: every typed accessor rejects one.
  ASSERT_NE(v.find("arr"), nullptr);
  EXPECT_THROW(v.get_number("arr", 0), std::invalid_argument);
  EXPECT_EQ(v.find("obj")->find("k")->as_string(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.get_string("missing", "dflt"), "dflt");
}

TEST(Json, RoundTripsJsonObjectOutput) {
  JsonObject o;
  o.add("text", "line1\nline2\t\"quoted\"").add_int("n", -42).add("ok", true);
  const JsonValue v = json_parse(o.str());
  EXPECT_EQ(v.get_string("text", ""), "line1\nline2\t\"quoted\"");
  EXPECT_EQ(v.get_number("n", 0), -42.0);
  EXPECT_TRUE(v.get_bool("ok", false));
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "}", "{\"a\":}", "{\"a\":1,}", "[1,]", "{'a':1}",
        "{\"a\":1}x", "nul", "{\"a\":01e}", "\"unterminated",
        "{\"a\":\"\\q\"}", "{\"a\" 1}", "[1 2]", "--5"}) {
    EXPECT_THROW(json_parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Json, WrongFieldTypeNamesTheField) {
  const JsonValue v = json_parse(R"({"algo":3})");
  try {
    v.get_string("algo", "");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("algo"), std::string::npos);
  }
}

// --------------------------------------------------------------- protocol --

TEST(Protocol, ParsesScheduleRequestWithDefaults) {
  const ServeRequest r = parse_request(
      R"({"graph":"tgs1 g 1 0\nnode 0 3\n","algo":"MCP"})");
  EXPECT_EQ(r.op, "schedule");
  EXPECT_EQ(r.algo, "MCP");
  EXPECT_EQ(r.procs, 0);
  EXPECT_TRUE(r.topology.empty());
  EXPECT_FALSE(r.want_schedule);
  EXPECT_TRUE(r.use_cache);
}

TEST(Protocol, ErrorCodesMatchFailureClass) {
  const auto code_of = [](const std::string& line) {
    try {
      parse_request(line);
    } catch (const ProtocolError& e) {
      return std::string(serve_error_code(e.code()));
    }
    return std::string("no_error");
  };
  EXPECT_EQ(code_of("garbage"), "bad_json");
  EXPECT_EQ(code_of("[1,2]"), "bad_json");
  EXPECT_EQ(code_of(R"({"op":"schedule","algo":"MCP"})"), "bad_request");
  EXPECT_EQ(code_of(R"({"op":"schedule","graph":"g"})"), "bad_request");
  EXPECT_EQ(code_of(R"({"op":"frobnicate"})"), "bad_request");
  EXPECT_EQ(code_of(R"({"graph":"g","algo":"MCP","procs":1.5})"),
            "bad_request");
  EXPECT_EQ(code_of(R"({"graph":"g","algo":"MCP","procs":2,"topology":"ring4"})"),
            "bad_request");
  EXPECT_EQ(code_of(R"({"graph":"g","algo":3})"), "bad_request");
}

TEST(Protocol, OutOfRangeIntegerFieldsAreBadRequests) {
  // Each value is outside int's range, so the range check must come
  // before any conversion to int.
  for (const char* field : {"procs", "deadline_ms", "retry"}) {
    for (const char* value : {"1e300", "-1e300", "1e19"}) {
      const std::string line = std::string(R"({"graph":"g","algo":"MCP",")") +
                               field + "\":" + value + "}";
      try {
        parse_request(line);
        ADD_FAILURE() << line << " was accepted";
      } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), ServeError::kBadRequest) << line;
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Protocol, GraphTextSurvivesEscapesAndLongRuns) {
  const std::string run(5000, 'x');
  const ServeRequest r = parse_request(
      R"({"graph":"tgs1 g 1 0\nnode 0 3 )" + run +
      R"(A\t\"q\"\\","algo":"MCP"})");
  EXPECT_EQ(r.graph_text, "tgs1 g 1 0\nnode 0 3 " + run + "A\t\"q\"\\");
}

TEST(Protocol, CacheKeySeparatesEveryDimension) {
  const std::string fp(32, 'a');
  const std::string base = make_cache_key(fp, "BNP", "MCP", "", 0);
  EXPECT_NE(base, make_cache_key(std::string(32, 'b'), "BNP", "MCP", "", 0));
  EXPECT_NE(base, make_cache_key(fp, "BNP", "ETF", "", 0));
  EXPECT_NE(base, make_cache_key(fp, "BNP", "MCP", "", 4));
  EXPECT_NE(base, make_cache_key(fp, "APN", "MCP", "ring4", 0));
  EXPECT_NE(make_cache_key(fp, "APN", "MH", "ring4", 0),
            make_cache_key(fp, "APN", "MH", "ring8", 0));
}

// ------------------------------------------------------------------ cache --

TEST(ScheduleCache, LruEvictionAndCounters) {
  ScheduleCache cache(2);
  CachedSchedule v;
  v.makespan = 1;
  cache.insert("a", v);
  cache.insert("b", v);

  CachedSchedule out;
  EXPECT_TRUE(cache.lookup("a", &out));  // refreshes a: LRU order is now b,a
  cache.insert("c", v);                  // evicts b
  EXPECT_FALSE(cache.lookup("b", &out));
  EXPECT_TRUE(cache.lookup("a", &out));
  EXPECT_TRUE(cache.lookup("c", &out));

  const auto c = cache.counters();
  EXPECT_EQ(c.hits, 3u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.size, 2u);
  EXPECT_EQ(c.capacity, 2u);
}

TEST(ScheduleCache, ZeroCapacityDisables) {
  ScheduleCache cache(0);
  CachedSchedule v, out;
  cache.insert("a", v);
  EXPECT_FALSE(cache.lookup("a", &out));
  EXPECT_EQ(cache.counters().size, 0u);
}

TEST(ScheduleCache, StoresValueContent) {
  ScheduleCache cache(4);
  CachedSchedule v;
  v.makespan = 123;
  v.nsl = 1.5;
  v.procs_used = 7;
  v.num_messages = 9;
  v.schedule_text = "tgssched1 ...";
  cache.insert("k", v);
  CachedSchedule out;
  ASSERT_TRUE(cache.lookup("k", &out));
  EXPECT_EQ(out.makespan, 123);
  EXPECT_EQ(out.nsl, 1.5);
  EXPECT_EQ(out.procs_used, 7);
  EXPECT_EQ(out.num_messages, 9u);
  EXPECT_EQ(out.schedule_text, "tgssched1 ...");
}

// ------------------------------------------------------------- graph memo --

TEST(GraphMemo, KeyCoversEveryByteAndTheLength) {
  const GraphMemo memo(4);
  const std::string text = graph_to_string(random_graph(3, 20));
  const GraphMemo::Key key = memo.key_of(text);
  EXPECT_EQ(key, memo.key_of(std::string(text)));
  EXPECT_EQ(key.size, text.size());
  // One flipped bit anywhere -- first byte, the 32-byte blocks, the tail
  // -- changes the key.
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string t = text;
    t[i] ^= 1;
    ASSERT_NE(memo.key_of(t), key) << "byte " << i;
  }
  // Zero bytes are text, not padding: every length of them keys apart.
  std::set<std::pair<std::uint64_t, std::uint64_t>> zeros;
  for (std::size_t n = 0; n <= 70; ++n) {
    const GraphMemo::Key k = memo.key_of(std::string(n, '\0'));
    zeros.insert({k.hi, k.lo});
  }
  EXPECT_EQ(zeros.size(), 71u);
  // Each memo draws its own seeds, so one text keys apart across memos.
  EXPECT_NE(GraphMemo(4).key_of(text), key);
}

TEST(GraphMemo, LruEvictionAndCounters) {
  GraphMemo memo(2);
  const GraphMemo::Key a = memo.key_of("a"), b = memo.key_of("b"),
                       c = memo.key_of("c");
  memo.insert(a, {1, 1});
  memo.insert(b, {2, 2});
  GraphFingerprint out;
  EXPECT_TRUE(memo.lookup(a, &out));  // refreshes a: LRU order is b, a
  EXPECT_EQ(out, (GraphFingerprint{1, 1}));
  memo.insert(c, {3, 3});  // evicts b
  EXPECT_FALSE(memo.lookup(b, &out));
  EXPECT_TRUE(memo.lookup(c, &out));
  EXPECT_EQ(out, (GraphFingerprint{3, 3}));
  const GraphMemo::Counters n = memo.counters();
  EXPECT_EQ(n.hits, 2u);
  EXPECT_EQ(n.misses, 1u);
  EXPECT_EQ(n.evictions, 1u);
  EXPECT_EQ(n.size, 2u);

  GraphMemo off(0);
  EXPECT_FALSE(off.enabled());
  off.insert(a, {1, 1});
  EXPECT_FALSE(off.lookup(a, &out));
  EXPECT_EQ(off.counters().size, 0u);
}

// ------------------------------------------------------------------ stats --

TEST(LatencyHist, QuantilesAreFactorOfTwoBounds) {
  LatencyHist h;
  for (int i = 0; i < 90; ++i) h.record(100);    // bucket [64, 128)
  for (int i = 0; i < 10; ++i) h.record(10000);  // bucket [8192, 16384)
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max_micros(), 10000u);
  EXPECT_EQ(h.quantile_micros(0.5), 128u);
  EXPECT_EQ(h.quantile_micros(0.9), 128u);
  EXPECT_EQ(h.quantile_micros(1.0), 10000u);  // clamped to the true max
}

// --------------------------------------------------------- topology specs --

TEST(TopologySpec, ParsesAllFamilies) {
  EXPECT_EQ(Topology::from_spec("ring5").num_procs(), 5);
  EXPECT_EQ(Topology::from_spec("mesh2x3").num_procs(), 6);
  EXPECT_EQ(Topology::from_spec("hcube3").num_procs(), 8);
  EXPECT_EQ(Topology::from_spec("clique4").num_links(), 6);
  EXPECT_EQ(Topology::from_spec("star7").degree(0), 6);
  EXPECT_EQ(Topology::from_spec("rand6@0.5#3").num_procs(), 6);
  for (const char* bad : {"", "ring", "ringx", "mesh4", "mesh2x", "hcube99",
                          "torus4", "ring-3", "rand6", "rand6@2#1"}) {
    EXPECT_THROW(Topology::from_spec(bad), std::invalid_argument) << bad;
  }
}

// ----------------------------------------------------------------- server --

// An in-process daemon on a unique socket path, torn down on destruction.
class ServerFixture {
 public:
  explicit ServerFixture(ServeOptions opt = {}) {
    static std::atomic<int> counter{0};
    opt.socket_path = "/tmp/tgs_serve_test_" + std::to_string(getpid()) +
                      "_" + std::to_string(counter.fetch_add(1)) + ".sock";
    server = std::make_unique<Server>(opt);
    thread = std::thread([this] { server->serve_forever(); });
  }

  ~ServerFixture() {
    server->request_stop();
    if (thread.joinable()) thread.join();
  }

  UnixConn connect() const { return UnixConn::connect(server->socket_path()); }

  /// Strict request/reply round trip on a dedicated connection.
  JsonValue ask(const std::string& request) {
    UnixConn conn = connect();
    return ask_on(conn, request);
  }

  static JsonValue ask_on(UnixConn& conn, const std::string& request) {
    conn.write_line(request);
    std::string reply;
    EXPECT_TRUE(conn.read_line(&reply));
    return json_parse(reply);
  }

  std::unique_ptr<Server> server;
  std::thread thread;
};

std::string schedule_request(const TaskGraph& g, const std::string& algo,
                             const std::string& topology = "", int procs = -1,
                             bool want_schedule = false, bool cache = true) {
  JsonObject o;
  o.add("id", "t1").add("graph", graph_to_string(g)).add("algo", algo);
  if (!topology.empty()) o.add("topology", topology);
  if (procs >= 0) o.add_int("procs", procs);
  if (want_schedule) o.add("schedule", true);
  if (!cache) o.add("cache", false);
  return o.str();
}

TEST(Server, BnpResponseMatchesDirectRun) {
  ServerFixture f;
  const TaskGraph g = random_graph(11);
  for (const char* algo : {"MCP", "ETF", "DLS", "HLFET", "DCP"}) {
    const JsonValue r =
        f.ask(schedule_request(g, algo, "", -1, /*want_schedule=*/true));
    ASSERT_EQ(r.get_string("status", ""), "ok") << algo;
    const Schedule direct = make_scheduler(algo)->run(g, SchedOptions{});
    EXPECT_EQ(static_cast<Time>(r.get_number("makespan", -1)),
              direct.makespan())
        << algo;
    EXPECT_EQ(r.get_string("schedule", ""), schedule_to_string(direct))
        << algo;
    EXPECT_FALSE(r.get_bool("cached", true));
    EXPECT_EQ(r.get_string("id", ""), "t1");
  }
}

TEST(Server, BoundedProcsArePassedThrough) {
  ServerFixture f;
  const TaskGraph g = random_graph(23);
  SchedOptions opt;
  opt.num_procs = 2;
  const Schedule direct = make_scheduler("MCP")->run(g, opt);
  const JsonValue r = f.ask(schedule_request(g, "MCP", "", 2));
  EXPECT_EQ(static_cast<Time>(r.get_number("makespan", -1)),
            direct.makespan());
  EXPECT_LE(r.get_number("procs_used", 99), 2.0);
}

TEST(Server, ApnResponseMatchesDirectRun) {
  ServerFixture f;
  const TaskGraph g = random_graph(17, 40);
  for (const char* algo : {"MH", "BSA"}) {
    const JsonValue r = f.ask(
        schedule_request(g, algo, "ring4", -1, /*want_schedule=*/true));
    ASSERT_EQ(r.get_string("status", ""), "ok") << algo;
    const RoutingTable routes{Topology::from_spec("ring4")};
    NetSchedule direct = make_apn_scheduler(algo)->run(g, routes);
    EXPECT_EQ(static_cast<Time>(r.get_number("makespan", -1)),
              direct.makespan())
        << algo;
    EXPECT_EQ(static_cast<std::size_t>(r.get_number("messages", 0)),
              direct.messages().size())
        << algo;
    EXPECT_EQ(r.get_string("schedule", ""), schedule_to_string(direct.tasks()))
        << algo;
  }
}

TEST(Server, ScheduleTextRoundTripsThroughScheduleIo) {
  ServerFixture f;
  const TaskGraph g = small_graph();
  const JsonValue r =
      f.ask(schedule_request(g, "ETF", "", -1, /*want_schedule=*/true));
  const Schedule parsed = schedule_from_string(r.get_string("schedule", ""), g);
  EXPECT_EQ(parsed.makespan(), static_cast<Time>(r.get_number("makespan", -1)));
  EXPECT_EQ(parsed.placed_count(), g.num_nodes());
}

TEST(Server, SecondIdenticalSubmissionIsServedFromCache) {
  ServerFixture f;
  const TaskGraph g = random_graph(31);
  UnixConn conn = f.connect();

  const JsonValue first = ServerFixture::ask_on(conn, schedule_request(g, "MCP"));
  ASSERT_EQ(first.get_string("status", ""), "ok");
  EXPECT_FALSE(first.get_bool("cached", true));

  // A *textually different but content-identical* resubmission: relabel
  // the graph. The fingerprint sees through it.
  TaskGraph relabeled = graph_from_string(
      [&] {
        std::string t = graph_to_string(g);
        return t.replace(t.find(g.name()), g.name().size(), "other_name");
      }());
  const JsonValue second =
      ServerFixture::ask_on(conn, schedule_request(relabeled, "MCP"));
  ASSERT_EQ(second.get_string("status", ""), "ok");
  EXPECT_TRUE(second.get_bool("cached", false));
  EXPECT_EQ(second.get_number("makespan", -1), first.get_number("makespan", -2));

  // Different algorithm or different machine: both miss.
  EXPECT_FALSE(ServerFixture::ask_on(conn, schedule_request(g, "ETF"))
                   .get_bool("cached", true));
  EXPECT_FALSE(ServerFixture::ask_on(conn, schedule_request(g, "MCP", "", 2))
                   .get_bool("cached", true));

  const auto c = f.server->cache().counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 3u);
}

TEST(Server, CacheOptOutNeverTouchesTheCache) {
  ServerFixture f;
  const TaskGraph g = small_graph();
  for (int i = 0; i < 2; ++i) {
    const JsonValue r = f.ask(schedule_request(g, "MCP", "", -1, false,
                                               /*cache=*/false));
    EXPECT_FALSE(r.get_bool("cached", true));
  }
  const auto c = f.server->cache().counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.misses, 0u);
  EXPECT_EQ(c.size, 0u);
}

TEST(Server, StatsOpReportsCountersAndHistograms) {
  ServerFixture f;
  const TaskGraph g = small_graph();
  UnixConn conn = f.connect();
  ServerFixture::ask_on(conn, schedule_request(g, "MCP"));
  ServerFixture::ask_on(conn, schedule_request(g, "MCP"));  // cache hit
  ServerFixture::ask_on(conn, "{\"op\":\"schedule\"}");     // bad_request

  const JsonValue s = ServerFixture::ask_on(conn, R"({"op":"stats"})");
  ASSERT_EQ(s.get_string("status", ""), "ok");
  EXPECT_EQ(s.get_number("requests_total", 0), 4.0);  // incl. this stats op
  EXPECT_EQ(s.get_number("requests_ok", 0), 3.0);
  EXPECT_EQ(s.get_number("requests_error", 0), 1.0);
  EXPECT_EQ(s.get_number("requests_rejected", 0), 0.0);
  EXPECT_EQ(s.get_number("cache_hits", 0), 1.0);
  EXPECT_EQ(s.get_number("cache_misses", 0), 1.0);
  EXPECT_EQ(s.get_number("queue_depth", 99), 0.0);
  const JsonValue* mcp = s.find("algos")->find("MCP");
  ASSERT_NE(mcp, nullptr);
  EXPECT_EQ(mcp->get_number("computed", 0), 1.0);
  EXPECT_EQ(mcp->get_number("cache_hits", 0), 1.0);
  EXPECT_GE(mcp->get_number("p50_us", -1), 0.0);

  // Every counter, cache and memo field appears exactly once among the
  // top-level fields, which all come before the "algos" object.
  conn.write_line(R"({"op":"stats"})");
  std::string raw;
  ASSERT_TRUE(conn.read_line(&raw));
  const std::string top = raw.substr(0, raw.find("\"algos\":"));
  std::vector<std::string> fields(std::begin(kCounterNames),
                                  std::end(kCounterNames));
  fields.insert(fields.end(),
                {"cache_hits", "cache_misses", "cache_evictions", "cache_size",
                 "cache_capacity", "graph_memo_hits", "graph_memo_misses",
                 "graph_memo_size"});
  for (const std::string& field : fields) {
    const std::string quoted = "\"" + field + "\":";
    const std::size_t at = top.find(quoted);
    EXPECT_NE(at, std::string::npos) << field;
    EXPECT_EQ(top.find(quoted, at + 1), std::string::npos) << field;
  }
}

TEST(Server, MalformedRequestsGetStructuredErrors) {
  ServerFixture f;
  UnixConn conn = f.connect();
  const auto code_of = [&conn](const std::string& line) {
    const JsonValue r = ServerFixture::ask_on(conn, line);
    EXPECT_EQ(r.get_string("status", ""), "error");
    return r.get_string("code", "");
  };
  EXPECT_EQ(code_of("this is not json"), "bad_json");
  EXPECT_EQ(code_of(R"({"algo":"MCP"})"), "bad_request");
  EXPECT_EQ(code_of(R"({"graph":"tgs1 g 1 0\nnode 0 -3\n","algo":"MCP"})"),
            "bad_graph");
  EXPECT_EQ(code_of(R"({"graph":"not a graph","algo":"MCP"})"), "bad_graph");
  EXPECT_EQ(
      code_of(schedule_request(small_graph(), "NOPE")), "unknown_algo");
  // BNP names are not in the APN registry and vice versa.
  EXPECT_EQ(code_of(schedule_request(small_graph(), "MCP", "ring4")),
            "unknown_algo");
  EXPECT_EQ(code_of(schedule_request(small_graph(), "MH")), "unknown_algo");
  EXPECT_EQ(code_of(schedule_request(small_graph(), "MH", "blob9")),
            "bad_topology");
  // The connection survives every error above.
  const JsonValue pong = ServerFixture::ask_on(conn, R"({"op":"ping"})");
  EXPECT_EQ(pong.get_string("status", ""), "ok");
}

// Node weights plus edge costs at kTimeInf or more would overflow the
// scheduler's Time arithmetic; the graph is refused before any work.
TEST(Protocol, OverweightGraphGetsBadGraphReply) {
  ServerFixture f;
  const JsonValue r = f.ask(
      R"({"id":"w","graph":"tgs1 g 2 1\nnode 0 9223372036854775807\n)"
      R"(node 1 1\nedge 0 1 1\n","algo":"MCP"})");
  EXPECT_EQ(r.get_string("id", ""), "w");
  EXPECT_EQ(r.get_string("status", ""), "error");
  EXPECT_EQ(r.get_string("code", ""), "bad_graph");
  EXPECT_NE(r.get_string("message", "").find("sum below"), std::string::npos)
      << r.get_string("message", "");
}

TEST(Server, UnknownAlgoMessageEnumeratesNamesAndParamGrammar) {
  ServerFixture f;
  const JsonValue r = f.ask(schedule_request(small_graph(), "NOPE"));
  ASSERT_EQ(r.get_string("code", ""), "unknown_algo");
  const std::string msg = r.get_string("message", "");
  for (const char* name : {"HLFET", "MCP", "EZ", "DCP"})
    EXPECT_NE(msg.find(name), std::string::npos) << msg;
  EXPECT_NE(msg.find("param:<metric>"), std::string::npos) << msg;
}

TEST(Server, ParamSpecSchedulesLikeItsNamedPoint) {
  ServerFixture f;
  const TaskGraph g = small_graph();
  // param:sl/static/append is the HLFET point; same bytes, and cached
  // under its canonical 4-segment name.
  const JsonValue r = f.ask(
      schedule_request(g, "param:sl/static/append", "", -1,
                       /*want_schedule=*/true));
  ASSERT_EQ(r.get_string("status", ""), "ok");
  const Schedule direct = make_scheduler("HLFET")->run(g, SchedOptions{});
  EXPECT_EQ(static_cast<Time>(r.get_number("makespan", -1)),
            direct.makespan());
  EXPECT_EQ(r.get_string("schedule", ""), schedule_to_string(direct));
  const JsonValue again = f.ask(
      schedule_request(g, "param:sl/static/append", "", -1,
                       /*want_schedule=*/true));
  EXPECT_TRUE(again.get_bool("cached", false));
}

TEST(Server, ZeroCapacityQueueRejectsWithBackpressureStatus) {
  ServeOptions opt;
  opt.queue_capacity = 0;  // every computed request must be rejected
  opt.cache_capacity = 0;  // and nothing can sneak in via the cache
  ServerFixture f(opt);
  const JsonValue r = f.ask(schedule_request(small_graph(), "MCP"));
  EXPECT_EQ(r.get_string("status", ""), "error");
  EXPECT_EQ(r.get_string("code", ""), "overloaded");
  EXPECT_GE(r.get_number("queue_capacity", -1), 0.0);
  ASSERT_NE(r.find("queue_depth"), nullptr);
}

TEST(Server, DlsApnAliasSharesTheCacheEntry) {
  ServerFixture f;
  const TaskGraph g = small_graph();
  UnixConn conn = f.connect();
  const JsonValue a =
      ServerFixture::ask_on(conn, schedule_request(g, "DLS-APN", "ring4"));
  ASSERT_EQ(a.get_string("status", ""), "ok");
  const JsonValue b =
      ServerFixture::ask_on(conn, schedule_request(g, "DLS", "ring4"));
  EXPECT_TRUE(b.get_bool("cached", false));
  EXPECT_EQ(a.get_number("makespan", -1), b.get_number("makespan", -2));
}

// ------------------------------------------------------ server: graph memo --

JsonValue stats_of(ServerFixture& f) { return f.ask(R"({"op":"stats"})"); }

double stat(const JsonValue& stats, const char* field) {
  return stats.get_number(field, -1);
}

/// `line` with every "\n" escape written as "\u000a" instead. Graph text
/// holds no backslash of its own, so these are exactly its newlines.
std::string with_unicode_newlines(std::string line) {
  for (std::size_t at = line.find("\\n"); at != std::string::npos;
       at = line.find("\\n", at))
    line.replace(at, 2, "\\u000a");
  return line;
}

/// A schedule request for `text` whose graph string writes each byte as a
/// \u00XX escape with probability `unicode_share`, and otherwise as JSON
/// requires ('\n' as \n, '"' and '\\' escaped). The decoded text is
/// `text` whatever the share.
std::string request_escaping(const std::string& text, const std::string& algo,
                             double unicode_share, std::mt19937_64& rng) {
  std::bernoulli_distribution as_unicode(unicode_share);
  std::string line = R"({"id":"m","algo":")" + algo +
                     R"(","schedule":true,"graph":")";
  for (const char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (as_unicode(rng) || (u < 0x20 && c != '\n')) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(u));
      line += buf;
    } else if (c == '\n') {
      line += "\\n";
    } else if (c == '"' || c == '\\') {
      line += '\\';
      line += c;
    } else {
      line += c;
    }
  }
  return line + "\"}";
}

/// The reply a request for `text` must get: graph_from_string's error as a
/// bad_graph, or the direct run's makespan and schedule text.
void expect_reply_matches_direct(const JsonValue& r, const std::string& text,
                                 const std::string& algo) {
  std::optional<TaskGraph> g;
  try {
    g.emplace(graph_from_string(text));
  } catch (const std::exception& e) {
    EXPECT_EQ(r.get_string("code", ""), "bad_graph") << algo;
    EXPECT_EQ(r.get_string("message", ""), e.what()) << algo;
    return;
  }
  ASSERT_EQ(r.get_string("status", ""), "ok")
      << algo << ": " << r.get_string("message", "");
  const Schedule direct = make_scheduler(algo)->run(*g, SchedOptions{});
  EXPECT_EQ(static_cast<Time>(r.get_number("makespan", -1)), direct.makespan())
      << algo;
  EXPECT_EQ(r.get_string("schedule", ""), schedule_to_string(direct)) << algo;
}

TEST(Server, ReescapedGraphHitsTheMemoAndTheCacheWithoutAParse) {
  ServerFixture f;
  const std::string line =
      schedule_request(random_graph(41), "MCP", "", -1, /*want_schedule=*/true);
  const std::string reescaped = with_unicode_newlines(line);
  ASSERT_NE(reescaped, line);
  ASSERT_EQ(parse_request(reescaped).graph_text,
            parse_request(line).graph_text);

  UnixConn conn = f.connect();
  const JsonValue first = ServerFixture::ask_on(conn, line);
  ASSERT_EQ(first.get_string("status", ""), "ok");
  EXPECT_FALSE(first.get_bool("cached", true));
  conn.write_line(line);
  std::string plain_hit, escaped_hit;
  ASSERT_TRUE(conn.read_line(&plain_hit));
  conn.write_line(reescaped);
  ASSERT_TRUE(conn.read_line(&escaped_hit));
  // Both resubmissions are cache hits, and one escaping of the graph
  // answers byte for byte like the other.
  EXPECT_TRUE(json_parse(escaped_hit).get_bool("cached", false));
  EXPECT_EQ(escaped_hit, plain_hit);

  // Both were answered from the memo: one parse in three requests.
  const JsonValue s = stats_of(f);
  EXPECT_EQ(stat(s, "graph_memo_hits"), 2.0);
  EXPECT_EQ(stat(s, "graph_memo_misses"), 1.0);
  EXPECT_EQ(stat(s, "graph_memo_size"), 1.0);
  EXPECT_EQ(stat(s, "graphs_parsed"), 1.0);
  EXPECT_EQ(stat(s, "cache_hits"), 2.0);
}

TEST(Server, CorruptedGraphMissesTheMemoAndFailsAsOnAFreshServer) {
  ServerFixture f;
  const TaskGraph g = random_graph(43);
  std::string text = graph_to_string(g);
  ASSERT_EQ(f.ask(schedule_request(g, "MCP")).get_string("status", ""), "ok");
  // One byte of an edge line: "edge 0 x ..." does not parse.
  text[text.find("edge ") + 7] = 'x';
  const std::string line =
      JsonObject().add("graph", text).add("algo", "MCP").str();
  const JsonValue r = f.ask(line);
  EXPECT_EQ(r.get_string("code", ""), "bad_graph");
  ServerFixture fresh;
  EXPECT_EQ(r.get_string("message", ""),
            fresh.ask(line).get_string("message", ""));
  expect_reply_matches_direct(r, text, "MCP");
  const JsonValue s = stats_of(f);
  EXPECT_EQ(stat(s, "graph_memo_hits"), 0.0);
  EXPECT_EQ(stat(s, "graph_memo_misses"), 2.0);
  EXPECT_EQ(stat(s, "graph_memo_size"), 1.0);
}

TEST(Server, BadGraphIsNeverMemoized) {
  ServerFixture f;
  const std::string line =
      R"({"graph":"tgs1 g 2 1\nnode 0 3\nnode 1 0\nedge 0 1 1\n","algo":"MCP"})";
  for (int i = 0; i < 2; ++i) {
    const JsonValue r = f.ask(line);
    EXPECT_EQ(r.get_string("code", ""), "bad_graph") << i;
    EXPECT_EQ(stat(stats_of(f), "graph_memo_size"), 0.0) << i;
  }
  const JsonValue s = stats_of(f);
  EXPECT_EQ(stat(s, "graph_memo_hits"), 0.0);
  EXPECT_EQ(stat(s, "graph_memo_misses"), 2.0);
  EXPECT_EQ(stat(s, "graphs_parsed"), 2.0);
}

TEST(Server, RelabeledGraphMissesTheMemoButHitsTheCache) {
  ServerFixture f;
  const TaskGraph g = random_graph(47);
  std::string text = graph_to_string(g);
  ASSERT_FALSE(f.ask(schedule_request(g, "ETF")).get_bool("cached", true));
  // New name, and a label on node 0: a new text, the same fingerprint.
  text.replace(text.find(g.name()), g.name().size(), "renamed");
  text.insert(text.find('\n', text.find("node 0 ")), " first");
  const JsonValue r =
      f.ask(JsonObject().add("graph", text).add("algo", "ETF").str());
  EXPECT_TRUE(r.get_bool("cached", false));
  const JsonValue s = stats_of(f);
  EXPECT_EQ(stat(s, "graph_memo_hits"), 0.0);
  EXPECT_EQ(stat(s, "graph_memo_misses"), 2.0);
  EXPECT_EQ(stat(s, "graph_memo_size"), 2.0);
  EXPECT_EQ(stat(s, "cache_hits"), 1.0);
}

TEST(Server, MemoPastItsCapacityAndDisabledMatchDirectRuns) {
  // Eight graphs through a three-entry memo, twice over, so entries are
  // evicted and re-added; and the same stream with the memo off.
  for (const std::size_t capacity : {std::size_t{3}, std::size_t{0}}) {
    ServeOptions opt;
    opt.cache_capacity = capacity;
    ServerFixture f(opt);
    UnixConn conn = f.connect();
    for (int round = 0; round < 2; ++round) {
      for (std::uint64_t seed = 60; seed < 68; ++seed) {
        const TaskGraph g = random_graph(seed, 30);
        for (const char* algo : {"MCP", "HLFET"}) {
          const JsonValue r = ServerFixture::ask_on(
              conn, schedule_request(g, algo, "", -1, /*want_schedule=*/true));
          expect_reply_matches_direct(r, graph_to_string(g), algo);
        }
      }
    }
    const JsonValue s = stats_of(f);
    EXPECT_LE(stat(s, "graph_memo_size"), static_cast<double>(capacity));
    if (capacity == 0) {
      EXPECT_EQ(stat(s, "graph_memo_hits"), 0.0);
      EXPECT_EQ(stat(s, "graph_memo_misses"), 0.0);
      EXPECT_EQ(stat(s, "graphs_parsed"), 32.0);
    } else {
      // Each graph's second algorithm finds it in the memo.
      EXPECT_GE(stat(s, "graph_memo_hits"), 16.0);
    }
  }
}

TEST(Server, MemoStreamOfRepeatsReescapingsAndMutationsMatchesDirectRuns) {
  // One server, a seeded stream: resubmissions of earlier texts, the same
  // texts with random \u00XX escapes, and one-byte mutations that become
  // texts of their own. Every reply must be what graph_from_string plus a
  // direct run say it is.
  ServerFixture f;
  std::mt19937_64 rng(20261019);
  std::vector<std::string> texts;
  for (std::uint64_t seed = 80; seed < 84; ++seed)
    texts.push_back(graph_to_string(random_graph(seed, 25)));
  const std::string mutants = "0123456789 -xn\n";
  const char* const algos[] = {"MCP", "ETF", "HLFET", "DLS"};
  UnixConn conn = f.connect();
  for (int i = 0; i < 150; ++i) {
    std::string text = texts[rng() % texts.size()];
    double unicode_share = 0;
    switch (rng() % 3) {
      case 0:  // resubmit as is
        break;
      case 1:  // re-escape
        unicode_share = (rng() % 4 + 1) / 4.0;
        break;
      default:  // mutate one byte; later requests may resubmit it
        text[rng() % text.size()] = mutants[rng() % mutants.size()];
        texts.push_back(text);
        break;
    }
    const std::string algo = algos[rng() % 4];
    const JsonValue r = ServerFixture::ask_on(
        conn, request_escaping(text, algo, unicode_share, rng));
    expect_reply_matches_direct(r, text, algo);
  }
  const JsonValue s = stats_of(f);
  EXPECT_GT(stat(s, "graph_memo_hits"), 0.0);
  EXPECT_GT(stat(s, "graph_memo_misses"), 0.0);
  EXPECT_GT(stat(s, "cache_hits"), 0.0);
  EXPECT_GT(stat(s, "requests_error"), 0.0);  // some mutants do not parse
}

TEST(Server, StatsCountersAreExactUnderConcurrentClients) {
  // Each client pings and asks for its own graphs, each twice in a row:
  // the first parses and misses, the second hits the memo and the cache.
  ServerFixture f;
  constexpr int kClients = 8, kPings = 500, kGraphs = 5;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&f, c] {
      UnixConn conn = f.connect();
      for (int i = 0; i < kPings; ++i)
        EXPECT_EQ(ServerFixture::ask_on(conn, R"({"op":"ping"})")
                      .get_string("status", ""),
                  "ok");
      for (int i = 0; i < kGraphs; ++i) {
        const TaskGraph g =
            random_graph(static_cast<std::uint64_t>(1000 + c * kGraphs + i),
                         20);
        for (int rep = 0; rep < 2; ++rep)
          EXPECT_EQ(ServerFixture::ask_on(conn, schedule_request(g, "MCP"))
                        .get_bool("cached", rep == 0),
                    rep == 1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const JsonValue s = stats_of(f);
  const double requests = kClients * (kPings + 2 * kGraphs) + 1;  // + stats
  EXPECT_EQ(stat(s, "requests_total"), requests);
  EXPECT_EQ(stat(s, "requests_ok"), requests);
  EXPECT_EQ(stat(s, "requests_error"), 0.0);
  EXPECT_EQ(stat(s, "cache_hits") + stat(s, "cache_misses"),
            2.0 * kClients * kGraphs);
  EXPECT_EQ(stat(s, "cache_hits"), 1.0 * kClients * kGraphs);
  EXPECT_EQ(stat(s, "graphs_parsed"), 1.0 * kClients * kGraphs);
}

TEST(Server, ConcurrentMixedClientsMatchDirectRuns) {
  // The acceptance demo: concurrent connections running 3+ BNP and 2 APN
  // algorithms, every response byte-identical to a direct run.
  ServerFixture f;
  struct Case {
    const char* algo;
    const char* topology;  // nullptr = fully-connected
    std::uint64_t seed;
  };
  const std::vector<Case> cases = {
      {"MCP", nullptr, 101}, {"ETF", nullptr, 102}, {"DLS", nullptr, 103},
      {"HLFET", nullptr, 104}, {"MH", "mesh2x2", 105}, {"BSA", "ring4", 106},
      {"DLS", "ring4", 107}, {"MCP", nullptr, 101},  // duplicate of case 0
  };
  std::vector<std::string> got(cases.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    clients.emplace_back([&f, &cases, &got, i] {
      const TaskGraph g = random_graph(cases[i].seed, 50);
      UnixConn conn = f.connect();
      for (int rep = 0; rep < 3; ++rep) {
        const JsonValue r = ServerFixture::ask_on(
            conn, schedule_request(
                      g, cases[i].algo,
                      cases[i].topology ? cases[i].topology : ""));
        ASSERT_EQ(r.get_string("status", ""), "ok");
        got[i] = json_double(r.get_number("makespan", -1));
      }
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const TaskGraph g = random_graph(cases[i].seed, 50);
    Time expect;
    if (cases[i].topology == nullptr) {
      expect = make_scheduler(cases[i].algo)->run(g, SchedOptions{}).makespan();
    } else {
      const RoutingTable routes{Topology::from_spec(cases[i].topology)};
      expect = make_apn_scheduler(cases[i].algo)->run(g, routes).makespan();
    }
    EXPECT_EQ(got[i], json_double(static_cast<double>(expect)))
        << cases[i].algo << " seed " << cases[i].seed;
  }
  // 8 clients x 3 reps = 24 schedule requests over <= 8 distinct inputs:
  // at least the 16 strict repeats were cache hits.
  EXPECT_GE(f.server->cache().counters().hits, 16u);
}

TEST(Server, PipelinedRequestsAllComeBack) {
  // One connection, N requests written before any reply is read. Replies
  // may arrive in any order; ids must cover the full set.
  ServerFixture f;
  UnixConn conn = f.connect();
  constexpr int kN = 12;
  const TaskGraph g = random_graph(55);
  for (int i = 0; i < kN; ++i) {
    JsonObject o;
    o.add("id", numbered_name("p", i))
        .add("graph", graph_to_string(g))
        .add("algo", i % 2 == 0 ? "MCP" : "ETF")
        .add("cache", false);
    conn.write_line(o.str());
  }
  std::set<std::string> ids;
  for (int i = 0; i < kN; ++i) {
    std::string line;
    ASSERT_TRUE(conn.read_line(&line));
    const JsonValue r = json_parse(line);
    EXPECT_EQ(r.get_string("status", ""), "ok");
    ids.insert(r.get_string("id", ""));
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kN));
}

TEST(Server, ShutdownOpStopsTheDaemon) {
  auto f = std::make_unique<ServerFixture>();
  const std::string path = f->server->socket_path();
  const JsonValue ack = f->ask(R"({"op":"shutdown"})");
  EXPECT_EQ(ack.get_string("status", ""), "ok");
  EXPECT_EQ(ack.get_string("op", ""), "shutdown");
  f->thread.join();  // serve_forever returns without request_stop()
  f.reset();
  // Socket file is gone; connecting again must fail.
  EXPECT_THROW(UnixConn::connect(path), std::runtime_error);
}

}  // namespace
}  // namespace tgs
