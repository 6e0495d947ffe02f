// serve_mix: the real tgs_serve daemon driven over its unix socket.
//
// Traffic: a seeded request stream over a pool of RGNOS graphs
// (v = 100..500). About half the requests resubmit a key sent a little
// earlier (cache hits); the rest are fresh (graph, algorithm) keys for
// HLFET, MCP, ETF, DLS and two param: points, and about a tenth are APN
// requests (MH, DLS) on small graphs and topologies. The pool holds more
// distinct keys than the daemon's cache, so evictions and journal
// compactions happen during the run.
//
// Load: a closed loop. tgs_client never pipelines, so its callers wait for
// each reply; here one client thread keeps two connections with two
// requests outstanding on each, which is enough to put a request behind
// another one's graph parse on the daemon's reader thread.
//
// Checks: every reply must equal an in-process run of the same request
// (makespan always, schedule text where "schedule":true was asked), the
// client's counts must equal the deltas of the daemon's stats op, the
// realized hit share must be near its target, the stream must be a pure
// function of the seed, and a fixed check set must match its digest.
//
// The traced run adds, after the same load, an in-process replay of the
// stream through the calls the daemon makes, timing each layer.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "tgs/exec/jsonl.h"
#include "tgs/gen/rgnos.h"
#include "tgs/graph/fingerprint.h"
#include "tgs/graph/graph_io.h"
#include "tgs/harness/registry.h"
#include "tgs/net/net_validate.h"
#include "tgs/net/routing.h"
#include "tgs/sched/metrics.h"
#include "tgs/sched/schedule_io.h"
#include "tgs/sched/validate.h"
#include "tgs/serve/cache.h"
#include "tgs/serve/json.h"
#include "tgs/serve/persist.h"
#include "tgs/serve/protocol.h"
#include "tgs/serve/socket.h"
#include "tgs/util/mem.h"
#include "tgs/util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tgs::TaskGraph;
using tgs::Time;

// Committed digest of the serve check set (see golden_digest_serve_mix).
constexpr const char* kGoldenServeMix = "cb6d691f30efcdd1";

// Daemon configuration. The cache holds fewer entries than the stream has
// distinct keys; compaction runs often enough to happen in every run.
constexpr int kWorkers = 2;
constexpr int kCacheCap = 256;
constexpr int kCompactEvery = 512;

// Client: closed loop, two connections, two requests outstanding on each.
constexpr int kConns = 2;
constexpr int kDepth = 2;

// Stream shape.
constexpr double kHitShare = 0.5;       // resubmissions of a recent key
constexpr double kApnShare = 0.1;       // of fresh keys
constexpr double kScheduleShare = 0.1;  // replies that carry the schedule
constexpr double kHitTolerance = 0.05;  // realized vs target hit share
constexpr int kPoolGraphs = 120;
constexpr std::size_t kStreamLen = 200000;
// A resubmission repeats a fresh key sent kResubMinLag..+kResubWindow
// fresh keys earlier: long enough that its first reply has come back,
// short enough that the LRU cache still holds it.
constexpr std::size_t kResubMinLag = 16;
constexpr std::size_t kResubWindow = 64;

constexpr int kSetups = 8;            // setup_s is their median
constexpr int kWarmupRequests = 400;  // not measured, only checked
constexpr int kPings = 200;           // idle round trips, traced run
constexpr int kIoTimeoutMs = 30000;   // longest wait for any reply

struct Variant {
  const char* algo;
  const char* topology;  // empty: fully connected, unlimited processors
};
constexpr Variant kVariants[] = {
    {"HLFET", ""},  {"MCP", ""},
    {"ETF", ""},    {"DLS", ""},
    {"param:cp/static/insert", ""},
    {"param:bl/dynamic/append", ""},
    {"MH", "ring4"}, {"DLS", "mesh2x2"},
    {"MH", "hcube2"},
};
constexpr int kNumBnpVariants = 6;
constexpr int kNumVariants = sizeof(kVariants) / sizeof(kVariants[0]);
constexpr tgs::NodeId kApnMaxNodes = 150;  // APN only on small graphs

struct Key {
  std::uint32_t graph = 0;
  std::uint32_t variant = 0;
  bool operator==(const Key&) const = default;
};

struct Req {
  Key key;
  bool want_schedule = false;
};

struct Inputs {
  std::vector<TaskGraph> graphs;
  std::vector<std::string> graph_json;  // JSON-escaped tgs1 text
  std::vector<Req> stream;
};

Inputs make_inputs(std::uint64_t seed, int pool_graphs) {
  Inputs in;
  tgs::Rng rng(tgs::derive_seed(seed, 0x5e7e));
  std::vector<Key> bnp_keys, apn_keys;
  for (int i = 0; i < pool_graphs; ++i) {
    tgs::RgnosParams p;
    p.num_nodes = static_cast<tgs::NodeId>(100 + 50 * (i % 9));
    p.ccr = tgs::kRgnosCcrs[rng.uniform_int(0, 4)];
    p.parallelism = static_cast<int>(rng.uniform_int(1, 5));
    p.seed = tgs::derive_seed(seed, static_cast<std::uint64_t>(i));
    in.graphs.push_back(tgs::rgnos_graph(p));
    in.graph_json.push_back(tgs::json_escape(tgs::graph_to_string(in.graphs.back())));
    const auto g = static_cast<std::uint32_t>(i);
    for (std::uint32_t v = 0; v < kNumBnpVariants; ++v) bnp_keys.push_back({g, v});
    if (p.num_nodes <= kApnMaxNodes)
      for (std::uint32_t v = kNumBnpVariants; v < kNumVariants; ++v)
        apn_keys.push_back({g, v});
  }
  std::shuffle(bnp_keys.begin(), bnp_keys.end(), rng);
  std::shuffle(apn_keys.begin(), apn_keys.end(), rng);

  std::vector<Key> fresh;
  std::size_t next_bnp = 0, next_apn = 0;
  in.stream.resize(kStreamLen);
  for (Req& r : in.stream) {
    if (fresh.size() >= kResubMinLag + kResubWindow && rng.bernoulli(kHitShare)) {
      const auto back = kResubMinLag + static_cast<std::size_t>(rng.uniform_int(
                                           0, kResubWindow - 1));
      r.key = fresh[fresh.size() - back];
    } else {
      r.key = rng.bernoulli(kApnShare) ? apn_keys[next_apn++ % apn_keys.size()]
                                       : bnp_keys[next_bnp++ % bnp_keys.size()];
      fresh.push_back(r.key);
    }
    r.want_schedule = rng.bernoulli(kScheduleShare);
  }
  return in;
}

/// The request line for stream entry i, exactly as sent to the daemon.
std::string request_line(const Inputs& in, std::size_t i) {
  const Req& r = in.stream[i];
  const Variant& v = kVariants[r.key.variant];
  std::string s = "{\"id\":\"" + std::to_string(i) + "\",\"algo\":\"" + v.algo + "\"";
  if (*v.topology != '\0') s += std::string(",\"topology\":\"") + v.topology + "\"";
  if (r.want_schedule) s += ",\"schedule\":true";
  s += ",\"graph\":\"";
  s += in.graph_json[r.key.graph];
  s += "\"}";
  return s;
}

/// Covers every byte the stream can send: the pool's graph texts and the
/// per-request fields request_line() assembles.
std::string inputs_digest(const Inputs& in) {
  Digest d;
  for (const std::string& g : in.graph_json) d.add(g);
  std::string buf;
  for (const Req& r : in.stream) {
    buf += std::to_string(r.key.graph) + "," + std::to_string(r.key.variant) +
           (r.want_schedule ? "s;" : ";");
    if (buf.size() > 1 << 16) {
      d.add(buf);
      buf.clear();
    }
  }
  d.add(buf);
  return d.hex();
}

// ------------------------------------------------------------- daemon --

/// A tgs_serve child process. The destructor stops it and reaps it on
/// every path, so no run leaves a daemon behind.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& socket,
         const std::string& journal)
      : socket_(socket) {
    std::remove(journal.c_str());
    const std::vector<std::string> args = {
        bin,
        "--socket=" + socket,
        "--workers=" + std::to_string(kWorkers),
        "--cache-cap=" + std::to_string(kCacheCap),
        "--journal=" + journal,
        "--fsync-every=0",
        "--compact-every=" + std::to_string(kCompactEvery),
        "--quiet"};
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      dup2(STDERR_FILENO, STDOUT_FILENO);  // keep the result stream clean
      std::vector<char*> argv;
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }

  /// Connects, retrying until the daemon listens; throws after 10 s. The
  /// connection's reads and writes time out after kIoTimeoutMs, so a hung
  /// daemon fails the run instead of stalling it.
  tgs::UnixConn connect() const {
    const auto t0 = Clock::now();
    for (;;) {
      try {
        tgs::UnixConn c = tgs::UnixConn::connect(socket_);
        c.set_timeouts(kIoTimeoutMs, kIoTimeoutMs);
        return c;
      } catch (const std::exception&) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_)
          throw std::runtime_error("tgs_serve exited during start-up");
        if (seconds_since(t0) > 10)
          throw std::runtime_error("tgs_serve did not start listening");
        usleep(1000);
      }
    }
  }

  /// Client-driven shutdown; returns true on exit code 0.
  bool shutdown() {
    try {
      tgs::UnixConn c = connect();
      c.write_line("{\"op\":\"shutdown\"}");
      std::string ack;
      c.read_line(&ack);
    } catch (const std::exception&) {
    }
    int status = 0;
    const auto t0 = Clock::now();
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > 10) return false;  // the destructor kills it
      usleep(1000);
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

tgs::JsonValue call(tgs::UnixConn& c, const std::string& line) {
  c.write_line(line);
  std::string reply;
  if (!c.read_line(&reply)) throw std::runtime_error("daemon closed the connection");
  return tgs::json_parse(reply);
}

struct Stats {
  double hits = 0, misses = 0, evictions = 0, errors = 0, rejected = 0,
         shed = 0, compactions = 0, queue_depth = 0;
};

Stats read_stats(tgs::UnixConn& c) {
  const tgs::JsonValue v = call(c, "{\"op\":\"stats\"}");
  Stats s;
  s.hits = v.get_number("cache_hits", 0);
  s.misses = v.get_number("cache_misses", 0);
  s.evictions = v.get_number("cache_evictions", 0);
  s.errors = v.get_number("requests_error", 0);
  s.rejected = v.get_number("requests_rejected", 0);
  s.shed = v.get_number("shed_requests", 0);
  s.queue_depth = v.get_number("queue_depth", 0);
  if (const tgs::JsonValue* j = v.find("journal"))
    s.compactions = j->get_number("compactions", 0);
  return s;
}

// -------------------------------------------------------------- client --

struct Reply {
  double sent = 0;  // seconds since the client's origin
  double recv = -1;
  bool ok = false;
  bool cached = false;
  bool measured = false;
  Time makespan = 0;
};

/// The closed-loop client: one thread, kConns connections, kDepth
/// requests outstanding on each.
class LoadClient {
 public:
  LoadClient(const Daemon& d, const Inputs& in) : in_(in), origin_(Clock::now()) {
    for (int i = 0; i < kConns; ++i) {
      conns_.emplace_back();
      conns_.back().conn = d.connect();
    }
    replies_.resize(in.stream.size());
  }

  /// Sends stream entries in order until `stop(sent)` says so, then waits
  /// for every outstanding reply. Returns when sending stopped, in seconds
  /// since the client's origin. Writes never block: a request line waits in
  /// its connection's output buffer until the daemon's reader takes it, so
  /// one busy connection cannot hold back the other.
  template <typename Stop>
  double run(bool measured, Stop stop) {
    double stopped = -1;
    for (;;) {
      const bool sending = !stop(sent_);
      if (!sending && stopped < 0) stopped = now();
      int outstanding = 0;
      for (Conn& c : conns_) {
        while (sending && c.outstanding < kDepth && sent_ < in_.stream.size()) {
          Reply& r = replies_[sent_];
          r.measured = measured;
          r.sent = now();
          c.out += request_line(in_, sent_);
          c.out += '\n';
          ++c.outstanding;
          ++sent_;
        }
        outstanding += c.outstanding;
      }
      if (outstanding == 0 && (!sending || sent_ == in_.stream.size()))
        return stopped < 0 ? now() : stopped;
      pollfd fds[kConns];
      for (int i = 0; i < kConns; ++i) {
        const short out = conns_[i].out.size() > conns_[i].out_off ? POLLOUT : 0;
        fds[i] = {conns_[i].conn.fd(), static_cast<short>(POLLIN | out), 0};
      }
      const int ready = poll(fds, kConns, kIoTimeoutMs);
      if (ready < 0 && errno != EINTR) throw std::runtime_error("poll failed");
      if (ready == 0) throw std::runtime_error("no reply from tgs_serve in 30 s");
      for (int i = 0; i < kConns; ++i) {
        if ((fds[i].revents & POLLOUT) != 0) flush(conns_[i]);
        if ((fds[i].revents & ~POLLOUT) != 0) drain(conns_[i]);
      }
    }
  }

  double now() const { return seconds_since(origin_); }
  std::size_t sent() const { return sent_; }
  const std::vector<Reply>& replies() const { return replies_; }
  /// Schedule texts of the replies that carried one, by stream index.
  const std::map<std::size_t, std::string>& schedules() const { return schedules_; }
  const std::map<std::size_t, std::string>& errors() const { return errors_; }

 private:
  struct Conn {
    tgs::UnixConn conn;
    std::string buf;         // reply bytes not yet split into lines
    std::string out;         // request bytes not yet taken by the daemon
    std::size_t out_off = 0;
    int outstanding = 0;
  };

  void flush(Conn& c) {
    const ssize_t n = send(c.conn.fd(), c.out.data() + c.out_off,
                           c.out.size() - c.out_off, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    c.out_off += static_cast<std::size_t>(n);
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }

  void drain(Conn& c) {
    char chunk[1 << 16];
    const ssize_t n = recv(c.conn.fd(), chunk, sizeof chunk, MSG_DONTWAIT);
    if (n == 0) throw std::runtime_error("daemon closed a client connection");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
    const double t = now();
    c.buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = c.buf.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      on_reply(c.buf.substr(start, nl - start), t);
      --c.outstanding;
    }
    c.buf.erase(0, start);
  }

  void on_reply(const std::string& line, double t) {
    const tgs::JsonValue v = tgs::json_parse(line);
    const std::size_t i = std::stoul(v.get_string("id", ""));
    if (i >= sent_ || replies_[i].recv >= 0)
      throw std::runtime_error("reply with an unknown or repeated id");
    Reply& r = replies_[i];
    r.recv = t;
    r.ok = v.get_string("status", "") == "ok";
    if (!r.ok) {
      errors_[i] = v.get_string("code", "") + ": " + v.get_string("message", "");
      return;
    }
    r.cached = v.get_bool("cached", false);
    r.makespan = static_cast<Time>(v.get_number("makespan", -1));
    if (const tgs::JsonValue* s = v.find("schedule")) schedules_[i] = s->as_string();
  }

  const Inputs& in_;
  Clock::time_point origin_;
  std::vector<Conn> conns_;
  std::vector<Reply> replies_;
  std::size_t sent_ = 0;
  std::map<std::size_t, std::string> schedules_;
  std::map<std::size_t, std::string> errors_;
};

/// Samples the machine reference kernel every 100 ms; in a traced run it
/// also polls the stats op for the queue depth, in alternate one-second
/// segments so the cost of that polling can be measured.
class Sampler {
 public:
  Sampler(const Daemon& d, bool trace) : trace_(trace) {
    if (trace_) conn_ = d.connect();
    thread_ = std::thread([this] { loop(); });
  }
  ~Sampler() { stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  static bool polling_segment(double t) { return static_cast<long>(t) % 2 == 1; }

  std::vector<double> ref_ms;
  double queue_depth_max = 0;

 private:
  void loop() {
    const auto t0 = Clock::now();
    auto next_ref = t0;
    while (!stop_.load()) {
      const auto now = Clock::now();
      if (now >= next_ref) {
        ref_ms.push_back(reference_kernel_ms());
        next_ref = now + std::chrono::milliseconds(100);
      }
      if (trace_ && polling_segment(seconds_since(t0))) {
        queue_depth_max = std::max(queue_depth_max, read_stats(conn_).queue_depth);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
  }

  bool trace_;
  tgs::UnixConn conn_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ------------------------------------------------------ direct results --

struct Direct {
  Time makespan = 0;
  std::string schedule_text;
};

/// The request scheduled in-process, as the daemon's worker would, and
/// validated against the oracle.
Direct run_direct(const Inputs& in, const Key& k, tgs::SchedWorkspace& ws,
                  RunReport* report) {
  const TaskGraph& g = in.graphs[k.graph];
  const Variant& v = kVariants[k.variant];
  ws.begin_graph(g);
  Direct d;
  tgs::ValidationResult valid;
  if (*v.topology != '\0') {
    const tgs::RoutingTable routes(tgs::Topology::from_spec(v.topology));
    const tgs::NetSchedule ns = tgs::make_apn_scheduler(v.algo)->run(g, routes, ws);
    d.makespan = ns.makespan();
    d.schedule_text = tgs::schedule_to_string(ns.tasks());
    valid = tgs::validate_net_schedule(ns);
  } else {
    const tgs::Schedule s = tgs::make_scheduler(v.algo)->run(g, {}, ws);
    d.makespan = s.makespan();
    d.schedule_text = tgs::schedule_to_string(s);
    valid = tgs::validate_schedule(s);
  }
  if (!valid)
    report->fail(std::string("invalid ") + v.algo + " schedule: " + valid.error);
  return d;
}

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    return (static_cast<std::size_t>(k.graph) << 8) ^ k.variant;
  }
};

// --------------------------------------------------------------- replay --

/// Per-layer samples of the in-process replay, in microseconds.
struct Layers {
  std::vector<double> parse_request, graph_parse, graph_allocs, resolve,
      fingerprint, lookup, render;
  // Split by outcome, for the hit and miss path sums; "common" is the
  // reader-side work before the lookup, "worker" everything a miss adds.
  std::vector<double> hit_common, miss_common, hit_lookup, miss_lookup,
      hit_render, miss_render, miss_worker;
  std::vector<double> routing;  // APN misses only
  std::vector<double> run, serialize, insert, append, compact_ms;
  struct Algo {
    double us = 0, allocs = 0, n = 0;
  };
  std::map<std::string, Algo> algos;  // "bnp.MCP", "apn.MH", ...
};

double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

/// Replays stream entries [0, n) through the calls the daemon makes for
/// each, in stream order on one thread, with a cache and a journal of the
/// daemon's sizes.
Layers replay(const Inputs& in, std::size_t n, const std::string& journal_path) {
  Layers L;
  tgs::ScheduleCache cache(kCacheCap);
  tgs::Journal journal;
  std::remove(journal_path.c_str());
  journal.open(journal_path, 0);
  tgs::SchedWorkspace ws;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string line = request_line(in, i);
    auto t0 = Clock::now();
    const tgs::ServeRequest req = tgs::parse_request(line);
    const double t_parse = us_since(t0);

    const tgs::AllocStats a0 = tgs::alloc_stats();
    t0 = Clock::now();
    const TaskGraph g = tgs::graph_from_string(req.graph_text);
    const double t_graph = us_since(t0);
    L.graph_allocs.push_back(static_cast<double>(tgs::alloc_stats().count - a0.count));

    const bool apn = !req.topology.empty();
    t0 = Clock::now();
    tgs::SchedulerPtr sched;
    tgs::ApnSchedulerPtr apn_sched;
    std::string algo, algo_class;
    if (apn) {
      (void)tgs::Topology::from_spec(req.topology);
      apn_sched = tgs::make_apn_scheduler(req.algo);
      algo = apn_sched->name();
      algo_class = "APN";
    } else {
      sched = tgs::make_scheduler(req.algo);
      algo = sched->name();
      algo_class = tgs::algo_class_name(sched->algo_class());
    }
    const double t_resolve = us_since(t0);

    t0 = Clock::now();
    const std::string key = tgs::make_cache_key(
        tgs::graph_fingerprint(g).hex(), algo_class, algo, req.topology, req.procs);
    const double t_fp = us_since(t0);

    tgs::CachedSchedule result;
    t0 = Clock::now();
    const bool hit = cache.lookup(key, &result);
    const double t_lookup = us_since(t0);

    if (!hit) {
      ws.begin_graph(g);
      double t_route = 0, t_run = 0;
      std::uint64_t run_allocs = 0;
      std::string layer;
      if (apn) {
        t0 = Clock::now();
        const tgs::RoutingTable routes(tgs::Topology::from_spec(req.topology));
        t_route = us_since(t0);
        const tgs::AllocStats r0 = tgs::alloc_stats();
        t0 = Clock::now();
        const tgs::NetSchedule ns = apn_sched->run(g, routes, ws);
        t_run = us_since(t0);
        run_allocs = tgs::alloc_stats().count - r0.count;
        layer = "apn." + algo;
        result.makespan = ns.makespan();
        result.nsl = tgs::normalized_schedule_length(g, ns.makespan());
        result.procs_used = ns.tasks().procs_used();
        result.num_messages = ns.messages().size();
        t0 = Clock::now();
        result.schedule_text = tgs::schedule_to_string(ns.tasks());
      } else {
        tgs::SchedOptions opt;
        opt.num_procs = req.procs;
        const tgs::AllocStats r0 = tgs::alloc_stats();
        t0 = Clock::now();
        const tgs::Schedule s = sched->run(g, opt, ws);
        t_run = us_since(t0);
        run_allocs = tgs::alloc_stats().count - r0.count;
        layer = algo.rfind("param:", 0) == 0 ? "bnp.param" : "bnp." + algo;
        result.makespan = s.makespan();
        result.nsl = tgs::normalized_schedule_length(s);
        result.procs_used = s.procs_used();
        t0 = Clock::now();
        result.schedule_text = tgs::schedule_to_string(s);
      }
      const double t_ser = us_since(t0);
      Layers::Algo& a = L.algos[layer];
      a.us += t_run;
      a.allocs += static_cast<double>(run_allocs);
      a.n += 1;

      t0 = Clock::now();
      cache.insert(key, result);
      const double t_insert = us_since(t0);
      t0 = Clock::now();
      journal.append(key, result);
      const double t_append = us_since(t0);
      if (journal.appends_since_compact() >= static_cast<std::uint64_t>(kCompactEvery)) {
        t0 = Clock::now();
        journal.compact(cache.snapshot());
        L.compact_ms.push_back(seconds_since(t0) * 1e3);
      }
      if (apn) L.routing.push_back(t_route);
      L.miss_worker.push_back(t_route + t_run + t_ser + t_insert + t_append);
      L.run.push_back(t_run);
      L.serialize.push_back(t_ser);
      L.insert.push_back(t_insert);
      L.append.push_back(t_append);
    }

    t0 = Clock::now();
    const std::string reply = tgs::render_schedule_response(
        req.id, algo, algo_class, result, hit, 0, req.want_schedule, apn);
    const double t_render = us_since(t0);

    L.parse_request.push_back(t_parse);
    L.graph_parse.push_back(t_graph);
    L.resolve.push_back(t_resolve);
    L.fingerprint.push_back(t_fp);
    L.lookup.push_back(t_lookup);
    L.render.push_back(t_render);
    const double common = t_parse + t_graph + t_resolve + t_fp;
    (hit ? L.hit_common : L.miss_common).push_back(common);
    (hit ? L.hit_lookup : L.miss_lookup).push_back(t_lookup);
    (hit ? L.hit_render : L.miss_render).push_back(t_render);
  }
  return L;
}

std::string check_set_digest(RunReport* report) {
  const Inputs in = make_inputs(1, 18);
  tgs::SchedWorkspace ws;
  Digest d;
  for (std::uint32_t g = 0; g < in.graphs.size(); ++g) {
    for (std::uint32_t v = 0; v < kNumVariants; ++v) {
      if (v >= kNumBnpVariants && in.graphs[g].num_nodes() > kApnMaxNodes) continue;
      const Direct r = run_direct(in, {g, v}, ws, report);
      d.add(tgs::graph_fingerprint(in.graphs[g]).hex() + "|" + kVariants[v].algo +
            "@" + kVariants[v].topology + "|" + std::to_string(r.makespan));
    }
  }
  return d.hex();
}

}  // namespace

std::string golden_digest_serve_mix() {
  RunReport scratch;
  return check_set_digest(&scratch) + (scratch.correct ? "" : "-invalid");
}

RunReport run_serve_mix(const RunArgs& args) {
  RunReport r;
  const std::string golden = golden_digest_serve_mix();
  if (golden != kGoldenServeMix)
    r.fail("check-set digest " + golden + " != committed " + kGoldenServeMix);

  const std::string socket = args.work_dir + "/serve.sock";
  const std::string journal = args.work_dir + "/cache.tgsj";

  // One set-up: generate the inputs, start the daemon, wait for its first
  // pong. setup_s is the median of kSetups of them, half before the
  // measured window and half after it, so the median spans the run instead
  // of one phase of the machine. Each must generate the same bytes.
  std::vector<double> setup_s, inputs_s, start_s;
  std::string digest;
  const auto set_up = [&](Inputs* in) {
    *in = Inputs{};
    const auto t0 = Clock::now();
    *in = make_inputs(args.seed, kPoolGraphs);
    inputs_s.push_back(seconds_since(t0));
    auto d = std::make_unique<Daemon>(args.serve_bin, socket, journal);
    tgs::UnixConn c = d->connect();
    const tgs::JsonValue pong = call(c, "{\"op\":\"ping\"}");
    setup_s.push_back(seconds_since(t0));
    start_s.push_back(setup_s.back() - inputs_s.back());
    if (pong.get_string("op", "") != "ping") r.fail("no pong from tgs_serve");
    const std::string dg = inputs_digest(*in);
    if (digest.empty())
      digest = dg;
    else if (dg != digest)
      r.fail("the same seed generated a different request stream");
    return d;
  };
  const auto set_up_and_stop = [&] {
    Inputs scratch;
    if (!set_up(&scratch)->shutdown()) r.fail("tgs_serve did not shut down cleanly");
  };
  for (int k = 1; k < kSetups / 2; ++k) set_up_and_stop();
  Inputs in;
  std::unique_ptr<Daemon> daemon = set_up(&in);
  if (inputs_digest(make_inputs(args.seed + 1, kPoolGraphs)) == digest)
    r.fail("a different seed generated the same request stream");

  tgs::UnixConn ctl = daemon->connect();
  LoadClient client(*daemon, in);
  client.run(false, [](std::size_t sent) { return sent >= kWarmupRequests; });
  const std::size_t first_measured = client.sent();
  const Stats s0 = read_stats(ctl);

  Sampler sampler(*daemon, args.trace);
  const StealMeter steal;
  const double t_start = client.now();
  const double window =
      client.run(true, [&](std::size_t) { return client.now() - t_start >= args.seconds; }) -
      t_start;
  sampler.stop();
  const double steal_pct = steal.percent();
  const Stats s1 = read_stats(ctl);

  std::vector<double> pings;
  if (args.trace) {
    for (int i = 0; i < kPings; ++i) {
      const auto t0 = Clock::now();
      call(ctl, "{\"op\":\"ping\"}");
      pings.push_back(us_since(t0));
    }
  }
  const double peak_rss_mb = process_peak_rss_mb(daemon->pid());
  ctl.close();
  if (!daemon->shutdown()) r.fail("tgs_serve did not shut down cleanly");
  for (int k = kSetups / 2; k < kSetups; ++k) set_up_and_stop();

  // ------------------------------------------------------ correctness --
  const auto t_check = Clock::now();
  std::unordered_map<Key, Direct, KeyHash> direct;
  tgs::SchedWorkspace ws;
  const std::vector<Reply>& replies = client.replies();
  std::vector<double> hit_ms, miss_ms, all_traced_ms, all_plain_ms;
  std::size_t in_window = 0, cached = 0, errors = 0, measured = 0;
  for (std::size_t i = 0; i < client.sent(); ++i) {
    const Reply& rep = replies[i];
    ++r.attempted;
    if (rep.recv < 0) {
      ++r.failed;
      r.fail("request " + std::to_string(i) + " got no reply");
      continue;
    }
    if (rep.measured) {
      ++measured;
      if (rep.recv - t_start <= window) ++in_window;
      if (!rep.ok) ++errors;
      if (rep.cached) ++cached;
    }
    if (!rep.ok) {
      ++r.failed;
      r.fail("request " + std::to_string(i) + ": " + client.errors().at(i));
      continue;
    }
    const Key& k = in.stream[i].key;
    auto it = direct.find(k);
    if (it == direct.end()) it = direct.emplace(k, run_direct(in, k, ws, &r)).first;
    bool same = rep.makespan == it->second.makespan;
    if (const auto s = client.schedules().find(i); s != client.schedules().end())
      same = same && s->second == it->second.schedule_text;
    else if (in.stream[i].want_schedule)
      same = false;
    if (!same) {
      ++r.failed;
      r.fail("request " + std::to_string(i) + " differs from the direct run");
    }
    if (!rep.measured) continue;
    const double ms = (rep.recv - rep.sent) * 1e3;
    (rep.cached ? hit_ms : miss_ms).push_back(ms);
    (Sampler::polling_segment(rep.sent - t_start) ? all_traced_ms : all_plain_ms)
        .push_back(ms);
  }
  if (static_cast<double>(cached) != s1.hits - s0.hits)
    r.fail("cached replies " + std::to_string(cached) + " != cache_hits delta " +
           std::to_string(s1.hits - s0.hits));
  if (static_cast<double>(errors) != s1.errors - s0.errors)
    r.fail("error replies " + std::to_string(errors) + " != requests_error delta");
  const double hit_share = measured == 0 ? 0 : static_cast<double>(cached) / measured;
  if (std::abs(hit_share - kHitShare) > kHitTolerance)
    r.fail("realized hit share " + std::to_string(hit_share) + " is not near " +
           std::to_string(kHitShare));
  const double validate_ms = seconds_since(t_check) * 1e3;

  const double hit_p50 = quantile(hit_ms, 0.5), miss_p50 = quantile(miss_ms, 0.5);
  const auto p99_note = [](const std::vector<double>& xs) {
    return tail_supported(xs.size(), 0.99) ? quantile(xs, 0.99) : 0.0;
  };
  const double serve_rps = static_cast<double>(in_window) / window;
  // sched_per_s is the median over one-second slices of the window, so a
  // stretch of the run in which the host was busy with other work does not
  // set the figure; serve_rps is the plain mean.
  const auto slices = std::max<std::size_t>(1, static_cast<std::size_t>(window));
  const double slice_s = window / static_cast<double>(slices);
  std::vector<double> slice_rps(slices, 0.0);
  for (std::size_t i = first_measured; i < client.sent(); ++i) {
    const double t = replies[i].recv - t_start;
    if (t >= 0 && t < window)
      slice_rps[std::min(slices - 1, static_cast<std::size_t>(t / slice_s))] += 1 / slice_s;
  }
  const double sched_per_s = median(slice_rps);
  const double ref_ms = median(sampler.ref_ms);
  const double adj_sched_per_s = machine_adjusted(sched_per_s, ref_ms, steal_pct);
  r.note("stream digest %s, check set %s, warm-up requests %zu",
         digest.c_str(), golden.c_str(), first_measured);
  r.note("setup_s        %.4f s median of %d, half after the window (inputs "
         "%.4f s, daemon start to first pong %.4f s; min %.4f, max %.4f)",
         median(setup_s), kSetups, median(inputs_s), median(start_s),
         *std::min_element(setup_s.begin(), setup_s.end()),
         *std::max_element(setup_s.begin(), setup_s.end()));
  r.note("hit_p50_ms     %.4f ms  (n=%zu)", hit_p50, hit_ms.size());
  r.note("hit_p99_ms     %.4f ms  (n=%zu%s)", p99_note(hit_ms), hit_ms.size(),
         tail_supported(hit_ms.size(), 0.99) ? "" : ", too few samples");
  r.note("miss_p50_ms    %.4f ms  (n=%zu)", miss_p50, miss_ms.size());
  r.note("miss_p99_ms    %.4f ms  (n=%zu%s)", p99_note(miss_ms), miss_ms.size(),
         tail_supported(miss_ms.size(), 0.99) ? "" : ", too few samples");
  r.note("serve_rps      %.2f 1/s mean (closed loop, %d connections x %d "
         "outstanding); one-second slices: median %.2f, q1 %.0f, q3 %.0f, n=%zu",
         serve_rps, kConns, kDepth, sched_per_s, quantile(slice_rps, 0.25),
         quantile(slice_rps, 0.75), slices);
  r.note("sched_per_s    %.2f 1/s (slice median); adj_sched_per_s %.2f 1/s "
         "(x ref %.4f / %.1f ms, / (1 - steal %.2f %%))",
         sched_per_s, adj_sched_per_s, ref_ms, kNominalRefMs, steal_pct);
  r.note("hit share      %.4f (target %.2f), failed_frac %.6f",
         hit_share, kHitShare,
         r.attempted == 0 ? 0.0 : static_cast<double>(r.failed) / r.attempted);
  r.note("machine.steal_pct %.2f %% (of all CPU time during the window)", steal_pct);
  r.note("machine.ref_ms %.4f ms (median of %zu samples)", ref_ms,
         sampler.ref_ms.size());
  r.note("validate.ms    %.1f ms (direct runs of %zu distinct keys)", validate_ms,
         direct.size());

  if (!args.trace) {
    r.metrics["adj_sched_per_s"] = adj_sched_per_s;
    r.metrics["peak_rss_mb"] = peak_rss_mb;
    r.metrics["setup_s"] = median(setup_s);
    return r;
  }

  // ---------------------------------------------------------- traced --
  const Layers L = replay(in, client.sent(), args.work_dir + "/replay.tgsj");
  auto& m = r.metrics;
  m["machine.ref_ms"] = ref_ms;
  m["validate.ms"] = validate_ms;
  m["trace.overhead_pct"] =
      (mean(all_traced_ms) - mean(all_plain_ms)) / mean(all_plain_ms) * 100.0;
  m["serve.hit_p50_ms"] = hit_p50;
  m["serve.hit_p99_ms"] = p99_note(hit_ms);
  m["serve.miss_p50_ms"] = miss_p50;
  m["serve.miss_p99_ms"] = p99_note(miss_ms);
  m["socket.ping_us"] = median(pings);
  m["protocol.parse_request_us"] = median(L.parse_request);
  m["protocol.render_us"] = median(L.render);
  m["graph_io.parse_us"] = median(L.graph_parse);
  m["graph_io.parse_allocs"] = median(L.graph_allocs);
  m["fingerprint.us"] = median(L.fingerprint);
  m["registry.resolve_us"] = median(L.resolve);
  m["cache.lookup_us"] = median(L.lookup);
  m["cache.insert_us"] = median(L.insert);
  const double lookups = (s1.hits - s0.hits) + (s1.misses - s0.misses);
  m["cache.hit_ratio"] = lookups > 0 ? (s1.hits - s0.hits) / lookups : 0;
  m["cache.evictions"] = s1.evictions - s0.evictions;
  m["journal.append_us"] = median(L.append);
  m["journal.compact_ms"] = median(L.compact_ms);
  m["journal.compactions"] = s1.compactions - s0.compactions;
  m["routing.build_us"] = median(L.routing);
  m["schedule_io.serialize_us"] = median(L.serialize);
  m["scheduler.run_us"] = median(L.run);
  m["server.rejected"] = s1.rejected - s0.rejected;
  m["server.shed"] = s1.shed - s0.shed;
  m["server.queue_depth_max"] = sampler.queue_depth_max;
  for (const auto& [name, a] : L.algos) {
    m[name + ".run_ms"] = a.us / a.n / 1e3;
    m[name + ".allocs"] = a.allocs / a.n;
  }
  // What the replayed layers leave of the client's p50 is socket transfer,
  // queue wait and hand-off between the daemon's threads.
  const double hit_layers = median(L.hit_common) + median(L.hit_lookup) +
                            median(L.hit_render);
  const double miss_layers = median(L.miss_common) + median(L.miss_lookup) +
                             median(L.miss_worker) + median(L.miss_render);
  m["serve.hit_unaccounted_us"] = hit_p50 * 1e3 - hit_layers;
  m["serve.miss_unaccounted_us"] = miss_p50 * 1e3 - miss_layers;
  r.note("hit path:  %.1f us replayed (parse+graph+resolve+fingerprint %.1f, "
         "lookup %.1f, render %.1f) + %.1f us unaccounted = %.1f us client p50",
         hit_layers, median(L.hit_common), median(L.hit_lookup),
         median(L.hit_render), m["serve.hit_unaccounted_us"], hit_p50 * 1e3);
  r.note("miss path: %.1f us replayed (parse+graph+resolve+fingerprint %.1f, "
         "lookup %.1f, worker %.1f of which schedule %.1f, render %.1f) + %.1f us "
         "unaccounted = %.1f us client p50",
         miss_layers, median(L.miss_common), median(L.miss_lookup),
         median(L.miss_worker), median(L.run), median(L.miss_render),
         m["serve.miss_unaccounted_us"], miss_p50 * 1e3);
  return r;
}

}  // namespace perfbench
