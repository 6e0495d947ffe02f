// tgs_client: command-line client for the tgs_serve daemon.
//
//   ./tgs_client graph.tgs --algo=MCP --procs=4
//   ./tgs_client graph.tgs --algo=MH --topology=ring4 --schedule --out=g.sched
//   ./tgs_client graph.tgs --algo=MCP,ETF,DLS --repeat=2
//   ./tgs_client --stats | --ping | --shutdown
//
// Requests go out sequentially (send, await the reply, send the next), so
// "--repeat=2" genuinely exercises the daemon's schedule cache: the second
// submission fingerprints identically and must come back "cached":true.
// Raw response JSON is printed one line per request; exit status is 0 only
// if every response had "status":"ok".
//
// Transient failures -- a daemon still restarting, "overloaded" or shed
// replies, connection drops, I/O timeouts -- are retried up to --retries
// times with exponential backoff and decorrelated jitter. A retry resends
// the SAME request id with a bumped "retry" attempt counter: scheduling is
// deterministic and cached, so retried requests are idempotent by
// construction. Definitive errors (bad_graph, unknown_algo, ...) are never
// retried.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tgs/exec/jsonl.h"
#include "tgs/serve/json.h"
#include "tgs/serve/socket.h"
#include "tgs/util/cli.h"
#include "tgs/util/names.h"
#include "tgs/util/rng.h"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Send one line, await one line. The daemon may interleave responses to
// *pipelined* requests, but a strict request/reply client never pipelines.
std::string round_trip(tgs::UnixConn& conn, const std::string& request) {
  conn.write_line(request);
  std::string reply;
  if (!conn.read_line(&reply))
    throw std::runtime_error("server closed the connection");
  return reply;
}

struct RetryPolicy {
  long retries = 3;     // attempts beyond the first
  long base_ms = 25;    // backoff floor
  long cap_ms = 2000;   // backoff ceiling
  int timeout_ms = 0;   // per-socket-op timeout (0 = block)
};

/// Only these reply codes mean "the same request may succeed later".
bool retryable_code(const std::string& code) {
  return code == "overloaded";
}

/// Run one request with the retry loop. `build(attempt)` renders the
/// request line for that attempt (same id, "retry" field = attempt).
/// `conn` is reconnected on demand -- a dropped daemon connection is just
/// another transient. Throws only after the final attempt fails hard.
std::string request_with_retry(
    const std::string& socket_path, tgs::UnixConn* conn,
    const RetryPolicy& policy, tgs::Rng* rng,
    const std::function<std::string(int)>& build) {
  // Decorrelated jitter: each sleep is uniform in [base, 3 * previous],
  // clamped to the cap. Independent clients desynchronize instead of
  // hammering a recovering daemon in lockstep.
  long sleep_ms = policy.base_ms;
  for (int attempt = 0;; ++attempt) {
    try {
      if (!conn->valid()) {
        *conn = tgs::UnixConn::connect(socket_path);
        if (policy.timeout_ms > 0)
          conn->set_timeouts(policy.timeout_ms, policy.timeout_ms);
      }
      const std::string reply = round_trip(*conn, build(attempt));
      const std::string code = tgs::json_parse(reply).get_string("code", "");
      if (!retryable_code(code) || attempt >= policy.retries) return reply;
    } catch (const std::exception&) {
      // Half-read replies poison the line framing: always reconnect.
      conn->close();
      if (attempt >= policy.retries) throw;
    }
    sleep_ms = std::min(
        policy.cap_ms,
        rng->uniform_int(policy.base_ms, std::max(policy.base_ms,
                                                  sleep_ms * 3)));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tgs;
  const Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: tgs_client [graph.tgs] [--socket=PATH] [--algo=A[,B...]]\n"
        "                  [--procs=N | --topology=SPEC] [--repeat=N]\n"
        "                  [--schedule] [--out=FILE] [--no-cache] [--quiet]\n"
        "                  [--deadline-ms=N] [--priority=high|low]\n"
        "                  [--retries=3] [--retry-base-ms=25]\n"
        "                  [--retry-cap-ms=2000] [--timeout-ms=N] [--seed=N]\n"
        "                  [--stats] [--ping] [--shutdown]\n");
    return 0;
  }

  try {
    const std::string socket_path = cli.get("socket", "/tmp/tgs_serve.sock");
    RetryPolicy policy;
    policy.retries = cli.get_int_in("retries", policy.retries, 0, 1000);
    policy.base_ms =
        cli.get_int_in("retry-base-ms", policy.base_ms, 1, 3600000);
    policy.cap_ms = cli.get_int_in("retry-cap-ms", policy.cap_ms, 1, 3600000);
    policy.timeout_ms = static_cast<int>(
        cli.get_int_in("timeout-ms", 0, 0, 1000000000));
    Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));

    // Lazily connected (inside the retry loop), so a daemon mid-restart is
    // a transient, not an immediate failure.
    UnixConn conn;

    // Admin ops: fire the one op and report. shutdown is intentionally
    // never retried -- re-sending it to a freshly restarted daemon would
    // kill the wrong incarnation.
    for (const char* op : {"stats", "ping", "shutdown"}) {
      if (!cli.has(op)) continue;
      const RetryPolicy admin_policy =
          std::string(op) == "shutdown" ? RetryPolicy{0, 1, 1,
                                                      policy.timeout_ms}
                                        : policy;
      const std::string reply = request_with_retry(
          socket_path, &conn, admin_policy, &rng, [op](int) {
            JsonObject o;
            o.add("op", op);
            return o.str();
          });
      std::printf("%s\n", reply.c_str());
      return json_parse(reply).get_string("status", "") == "ok" ? 0 : 1;
    }

    if (cli.positional().empty()) {
      std::fprintf(stderr, "tgs_client: no graph file (see --help)\n");
      return 1;
    }
    const std::string graph_text = read_file(cli.positional()[0]);
    const std::vector<std::string> algos = cli.get_list("algo");
    if (algos.empty()) {
      std::fprintf(stderr, "tgs_client: no --algo given\n");
      return 1;
    }
    const long repeat = cli.get_int("repeat", 1);
    const bool want_schedule = cli.has("schedule") || cli.has("out");

    bool all_ok = true;
    int seq = 0;
    for (long r = 0; r < repeat; ++r) {
      for (const std::string& algo : algos) {
        const std::string id = numbered_name("c", seq++);
        const auto build = [&](int attempt) {
          JsonObject o;
          o.add("id", id).add("algo", algo).add("graph", graph_text);
          if (cli.has("topology")) {
            o.add("topology", cli.get("topology", ""));
          } else if (cli.has("procs")) {
            o.add_int("procs", cli.get_int("procs", 0));
          }
          if (want_schedule) o.add("schedule", true);
          if (cli.has("no-cache")) o.add("cache", false);
          if (cli.has("deadline-ms"))
            o.add_int("deadline_ms", cli.get_int("deadline-ms", 0));
          if (cli.has("priority")) o.add("priority", cli.get("priority", ""));
          if (attempt > 0) o.add_int("retry", attempt);
          return o.str();
        };
        const std::string reply =
            request_with_retry(socket_path, &conn, policy, &rng, build);
        if (!cli.has("quiet")) std::printf("%s\n", reply.c_str());

        const JsonValue doc = json_parse(reply);
        if (doc.get_string("status", "") != "ok") {
          all_ok = false;
          continue;
        }
        const std::string out = cli.get("out", "");
        if (!out.empty()) {
          std::ofstream f(out, std::ios::binary | std::ios::trunc);
          f << doc.get_string("schedule", "");
          if (!f) throw std::runtime_error("cannot write " + out);
        }
      }
    }
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tgs_client: %s\n", e.what());
    return 1;
  }
}
