#include "tgs/serve/server.h"

#include <chrono>
#include <new>
#include <utility>

#include "tgs/exec/jsonl.h"
#include "tgs/serve/faults.h"
#include "tgs/graph/fingerprint.h"
#include "tgs/graph/graph_io.h"
#include "tgs/harness/registry.h"
#include "tgs/net/routing.h"
#include "tgs/net/topology.h"
#include "tgs/sched/metrics.h"
#include "tgs/sched/schedule_io.h"
#include "tgs/sched/workspace.h"

namespace tgs {

namespace {

int resolve_workers(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : static_cast<int>(hw);
}

/// One thread-local workspace per scheduler worker (and per reader thread
/// that happens to compute -- there are none today). begin_graph() is
/// called per request: every request carries a fresh graph object.
SchedWorkspace& worker_workspace(const TaskGraph& g) {
  static thread_local SchedWorkspace ws;
  ws.begin_graph(g);
  return ws;
}

std::uint64_t micros_since(
    std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Disarms the workspace deadline on every exit path -- including the
/// DeadlineExceeded throw itself -- so the thread-local workspace is
/// always handed back clean for the worker's next request.
struct DeadlineArmGuard {
  RunDeadline& deadline;
  ~DeadlineArmGuard() { deadline.disarm(); }
};

}  // namespace

/// Shared between the reader thread and the workers computing for it; the
/// write mutex serializes response lines so they cannot interleave.
struct Server::ConnCtx {
  UnixConn conn;
  std::mutex write_mu;
  std::atomic<bool> done{false};
  std::thread thread;
};

/// A schedule request after reader-side resolution: graph parsed,
/// algorithm built from the right registry, cache key built from the
/// graph's fingerprint (unless the request opted out of the cache).
/// Everything a worker needs, immutable from here on.
struct Server::ResolvedRequest {
  ServeRequest req;
  std::shared_ptr<const TaskGraph> graph;
  SchedulerPtr algo;          // set unless is_apn; the worker runs it
  ApnSchedulerPtr apn_algo;   // set iff is_apn
  std::string resolved_algo;  // registry spelling ("DLS", not "DLS-APN")
  std::string algo_class;     // "BNP" / "UNC" / "APN"
  std::string cache_key;
  bool is_apn = false;
  /// Absolute deadline fixed at admission (epoch = no deadline), so queue
  /// wait counts against it just like compute time does.
  std::chrono::steady_clock::time_point deadline{};
};

Server::Server(ServeOptions opt)
    : opt_(opt),
      listener_(opt.socket_path),
      pool_(resolve_workers(opt.workers)),
      cache_(opt.cache_capacity),
      memo_(opt.cache_capacity) {
  if (!opt_.journal_path.empty()) {
    journal_.open(opt_.journal_path, opt_.journal_fsync_every);
    // Replay in append order: the journal records inserts oldest-first,
    // so replay reproduces the cache's recency order (and LRU eviction
    // keeps only the newest entries if the journal outgrew the cache).
    for (const auto& [key, value] : journal_.recovery().entries)
      if (!cache_insert(key, value)) break;
  }
}

bool Server::cache_insert(const std::string& key,
                          const CachedSchedule& value) {
  try {
    // Scripted allocation failure: the cache is an accelerator, so both
    // callers must survive an insert that throws as a real OOM would.
    if (cache_.enabled() && FaultPlan::hit(FaultPoint::kCacheOom))
      throw std::bad_alloc();
    cache_.insert(key, value);
    return true;
  } catch (const std::bad_alloc&) {
    stats_.count(Counter::kCacheInsertFailures);
    return false;
  }
}

Server::~Server() {
  request_stop();
  // Safe double-drain when serve_forever() already ran: both are
  // idempotent, and conns_ is empty after its cleanup.
  pool_.stop(/*drain=*/true);
  reap_finished_connections(/*join_all=*/true);
}

void Server::request_stop() {
  if (stopping_.exchange(true)) return;
  listener_.close();  // wakes the blocked accept()
}

void Server::serve_forever() {
  for (;;) {
    UnixConn conn = listener_.accept();
    if (!conn.valid()) break;  // listener closed: shutting down
    if (opt_.io_timeout_ms > 0)
      conn.set_timeouts(opt_.io_timeout_ms, opt_.io_timeout_ms);
    auto ctx = std::make_shared<ConnCtx>();
    ctx->conn = std::move(conn);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(ctx);
    }
    ctx->thread = std::thread([this, ctx] { handle_connection(ctx); });
    reap_finished_connections(/*join_all=*/false);
  }
  // Drain: admitted jobs finish and write their responses, then every
  // reader is forced off its socket and joined.
  pool_.stop(/*drain=*/true);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& ctx : conns_) ctx->conn.shutdown_both();
  }
  reap_finished_connections(/*join_all=*/true);
}

void Server::reap_finished_connections(bool join_all) {
  std::vector<std::shared_ptr<ConnCtx>> to_join;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto keep = conns_.begin();
    for (auto& ctx : conns_) {
      if (join_all || ctx->done.load()) {
        to_join.push_back(std::move(ctx));
      } else {
        *keep++ = std::move(ctx);
      }
    }
    conns_.erase(keep, conns_.end());
  }
  for (const auto& ctx : to_join)
    if (ctx->thread.joinable()) ctx->thread.join();
}

void Server::handle_connection(const std::shared_ptr<ConnCtx>& ctx) {
  std::string line;
  try {
    while (ctx->conn.read_line(&line, opt_.max_request_bytes))
      handle_line(ctx, line);
  } catch (const LineTooLong& e) {
    // A bounded request never OOMs the daemon: answer with a structured
    // error, then drop the connection -- with no line framing left we
    // cannot resynchronize on this socket.
    stats_.count(Counter::kRequestsTotal);
    stats_.count(Counter::kRequestsError);
    write_response(ctx, render_error("", ServeError::kBadRequest, e.what()));
  } catch (const std::exception&) {
    // Mid-line close, read timeout, or I/O error: drop the connection.
    // Anything already admitted still completes (the worker's write then
    // fails harmlessly against the shut-down fd).
  }
  ctx->conn.shutdown_both();
  ctx->done.store(true);
}

void Server::write_response(const std::shared_ptr<ConnCtx>& ctx,
                            const std::string& line) {
  std::lock_guard<std::mutex> lock(ctx->write_mu);
  try {
    ctx->conn.write_line(line);
  } catch (const std::exception&) {
    // Peer vanished before its answer; nothing to do.
  }
}

void Server::handle_line(const std::shared_ptr<ConnCtx>& ctx,
                         const std::string& line) {
  if (line.empty()) return;  // tolerate blank keep-alive lines
  stats_.count(Counter::kRequestsTotal);
  ServeRequest req;
  try {
    req = parse_request(line);
  } catch (const ProtocolError& e) {
    stats_.count(Counter::kRequestsError);
    write_response(ctx, render_error("", e.code(), e.what()));
    return;
  }

  if (req.op == "ping") {
    stats_.count(Counter::kRequestsOk);
    write_response(ctx, render_pong(req.id));
    return;
  }
  if (req.op == "stats") {
    stats_.count(Counter::kRequestsOk);
    write_response(ctx, render_stats(req.id));
    return;
  }
  if (req.op == "shutdown") {
    stats_.count(Counter::kRequestsOk);
    write_response(ctx, render_shutdown_ack(req.id));
    request_stop();
    return;
  }
  handle_schedule(ctx, std::move(req));
}

void Server::handle_schedule(const std::shared_ptr<ConnCtx>& ctx,
                             ServeRequest req) {
  const auto reply_error = [&](ServeError code, const std::string& msg) {
    stats_.count(Counter::kRequestsError);
    write_response(ctx, render_error(req.id, code, msg));
  };

  if (req.retry > 0) stats_.count(Counter::kRetriesObserved);

  // The queued request carries the parsed graph, not its text.
  const std::string graph_text = std::exchange(req.graph_text, {});
  auto rr = std::make_shared<ResolvedRequest>();
  rr->req = req;
  rr->is_apn = !req.topology.empty();

  // Effective deadline: the client's ask, else the server default, both
  // clamped by the server cap (which also binds deadline-less requests).
  int deadline_ms =
      req.deadline_ms > 0 ? req.deadline_ms : opt_.default_deadline_ms;
  if (opt_.max_deadline_ms > 0 &&
      (deadline_ms == 0 || deadline_ms > opt_.max_deadline_ms))
    deadline_ms = opt_.max_deadline_ms;
  if (deadline_ms > 0)
    rr->deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(deadline_ms);

  // A graph text the memo holds has parsed before and has this
  // fingerprint: a cache hit on it is answered without the parse, and a
  // miss parses it only because the worker needs the graph. A request that
  // opts out of the cache needs the graph and no fingerprint, so it skips
  // the memo.
  const bool memoize = req.use_cache && memo_.enabled();
  GraphMemo::Key text_key;
  GraphFingerprint fp;
  bool fp_known = false;
  if (memoize) {
    text_key = memo_.key_of(graph_text);
    fp_known = memo_.lookup(text_key, &fp);
  }
  // Parses the graph, or answers bad_graph and returns false.
  const auto parse_graph = [&] {
    stats_.count(Counter::kGraphsParsed);
    try {
      rr->graph =
          std::make_shared<const TaskGraph>(graph_from_string(graph_text));
      return true;
    } catch (const std::exception& e) {
      reply_error(ServeError::kBadGraph, e.what());
      return false;
    }
  };

  // Resolution order fixes error precedence: graph, then topology, then
  // algorithm (documented in docs/serve.md). Memoized text cannot fail the
  // graph check.
  if (!fp_known && !parse_graph()) return;
  if (rr->is_apn) {
    try {
      Topology::from_spec(req.topology);  // validated here, built by worker
    } catch (const std::exception& e) {
      return reply_error(ServeError::kBadTopology, e.what());
    }
    try {
      rr->apn_algo = make_apn_scheduler(req.algo);
      rr->resolved_algo = rr->apn_algo->name();
      rr->algo_class = "APN";
    } catch (const std::exception& e) {
      return reply_error(ServeError::kUnknownAlgo, e.what());
    }
  } else {
    try {
      rr->algo = make_scheduler(req.algo);
      rr->resolved_algo = rr->algo->name();
      rr->algo_class = algo_class_name(rr->algo->algo_class());
    } catch (const std::exception& e) {
      return reply_error(ServeError::kUnknownAlgo, e.what());
    }
  }

  if (req.use_cache) {
    if (!fp_known) {
      fp = graph_fingerprint(*rr->graph);
      if (memoize) {
        try {
          memo_.insert(text_key, fp);
        } catch (const std::bad_alloc&) {
          // The memo is an accelerator: the text just parses next time.
        }
      }
    }
    rr->cache_key = make_cache_key(fp.hex(), rr->algo_class,
                                   rr->resolved_algo, req.topology, req.procs);
    CachedSchedule hit;
    if (cache_.lookup(rr->cache_key, &hit)) {
      stats_.record_cache_hit(rr->resolved_algo);
      stats_.count(Counter::kRequestsOk);
      write_response(ctx, render_schedule_response(
                              req.id, rr->resolved_algo, rr->algo_class, hit,
                              /*cached=*/true, /*micros=*/0,
                              req.want_schedule, rr->is_apn));
      return;
    }
  }
  if (rr->graph == nullptr && !parse_graph()) return;

  // Graceful degradation: under pressure (but before the hard admission
  // bound) low-priority requests get the cache probe above and nothing
  // more -- the compute queue is kept for high-priority work. The client
  // backs off and retries; by then the entry may have been computed for
  // someone else and becomes a cache hit.
  const std::size_t shed_at = opt_.queue_capacity - opt_.queue_capacity / 4;

  // Admission control: a full queue answers immediately instead of
  // buffering unboundedly. fetch_add-then-check keeps the bound exact
  // without a lock on the hot path.
  const char* reject_reason = nullptr;
  bool shed = false;
  if (stopping_.load()) {
    reject_reason = "server shutting down";
  } else if (req.low_priority && inflight_.load() >= shed_at) {
    reject_reason = "low-priority request shed under load";
    shed = true;
  } else if (inflight_.fetch_add(1) >= opt_.queue_capacity) {
    inflight_.fetch_sub(1);
    reject_reason = "queue at capacity";
  }
  if (reject_reason != nullptr) {
    stats_.count(Counter::kRequestsRejected);
    if (shed) stats_.count(Counter::kShedRequests);
    JsonObject o;
    if (!req.id.empty()) o.add("id", req.id);
    o.add("status", "error")
        .add("code", serve_error_code(ServeError::kOverloaded))
        .add("message", reject_reason)
        .add_uint("queue_depth", pool_.queue_depth())
        .add_uint("queue_capacity", opt_.queue_capacity);
    write_response(ctx, o.str());
    return;
  }

  try {
    pool_.submit([this, ctx, rr] {
      // Scripted stall: models a worker wedged on a slow NUMA page-in or
      // a debugger stop. Deadlined requests must still come back as
      // deadline_exceeded, and the worker must survive to take the next
      // job.
      std::int64_t stall_ms = 0;
      if (FaultPlan::hit(FaultPoint::kWorkerStall, &stall_ms))
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stall_ms > 0 ? stall_ms : 100));

      const auto started = std::chrono::steady_clock::now();
      CachedSchedule result;
      try {
        SchedWorkspace& ws = worker_workspace(*rr->graph);
        DeadlineArmGuard guard{ws.deadline()};
        if (rr->deadline != std::chrono::steady_clock::time_point{}) {
          // Queue wait may already have burned the whole budget.
          if (std::chrono::steady_clock::now() >= rr->deadline)
            throw DeadlineExceeded();
          ws.deadline().arm(rr->deadline);
        }
        if (rr->is_apn) {
          const RoutingTable routes(Topology::from_spec(rr->req.topology));
          NetSchedule ns = rr->apn_algo->run(*rr->graph, routes, ws);
          result.makespan = ns.makespan();
          result.nsl = normalized_schedule_length(*rr->graph, ns.makespan());
          result.procs_used = ns.tasks().procs_used();
          result.num_messages = ns.messages().size();
          result.schedule_text = schedule_to_string(ns.tasks());
        } else {
          SchedOptions opt;
          opt.num_procs = rr->req.procs;
          Schedule s = rr->algo->run(*rr->graph, opt, ws);
          result.makespan = s.makespan();
          result.nsl = normalized_schedule_length(s);
          result.procs_used = s.procs_used();
          result.schedule_text = schedule_to_string(s);
        }
      } catch (const DeadlineExceeded& e) {
        // Cooperative cancellation: the scheduler unwound through
        // capacity-only scratch, so the workspace (and this worker) are
        // immediately reusable.
        inflight_.fetch_sub(1);
        stats_.count(Counter::kDeadlineExceeded);
        stats_.count(Counter::kRequestsError);
        write_response(ctx, render_error(rr->req.id,
                                         ServeError::kDeadlineExceeded,
                                         e.what()));
        return;
      } catch (const std::exception& e) {
        inflight_.fetch_sub(1);
        stats_.count(Counter::kRequestsError);
        write_response(ctx,
                       render_error(rr->req.id, ServeError::kInternal,
                                    e.what()));
        return;
      }
      const std::uint64_t micros = micros_since(started);
      // A result that fails to cache still goes to the client; it is not
      // journaled either, since the journal mirrors the cache.
      if (rr->req.use_cache && cache_insert(rr->cache_key, result) &&
          journal_.is_open()) {
        // Durability before visibility: the entry is on disk (per the
        // fsync policy) before any client sees the response, so a crash
        // after this point replays it on restart.
        journal_.append(rr->cache_key, result);
        if (opt_.journal_compact_every > 0 &&
            journal_.appends_since_compact() >=
                static_cast<std::uint64_t>(opt_.journal_compact_every))
          journal_.compact(cache_.snapshot());
      }
      stats_.record_latency(rr->resolved_algo, micros);
      stats_.count(Counter::kRequestsOk);
      inflight_.fetch_sub(1);
      write_response(ctx, render_schedule_response(
                              rr->req.id, rr->resolved_algo, rr->algo_class,
                              result, /*cached=*/false, micros,
                              rr->req.want_schedule, rr->is_apn));
    });
  } catch (const std::exception&) {
    // Pool already stopping (shutdown raced the admission check).
    inflight_.fetch_sub(1);
    stats_.count(Counter::kRequestsRejected);
    write_response(ctx, render_error(req.id, ServeError::kOverloaded,
                                     "server shutting down"));
  }
}

std::string Server::render_stats(const std::string& id) const {
  const ScheduleCache::Counters c = cache_.counters();
  const GraphMemo::Counters m = memo_.counters();
  JsonObject o;
  if (!id.empty()) o.add("id", id);
  o.add("status", "ok")
      .add("op", "stats")
      .add_int("workers", pool_.size())
      .add_uint("queue_depth", pool_.queue_depth())
      .add_uint("queue_capacity", opt_.queue_capacity);
  for (std::size_t i = 0; i < std::size(kCounterNames); ++i)
    o.add_uint(kCounterNames[i], stats_.value(static_cast<Counter>(i)));
  o.add_uint("cache_hits", c.hits)
      .add_uint("cache_misses", c.misses)
      .add_uint("cache_evictions", c.evictions)
      .add_uint("cache_size", c.size)
      .add_uint("cache_capacity", c.capacity)
      .add_uint("graph_memo_hits", m.hits)
      .add_uint("graph_memo_misses", m.misses)
      .add_uint("graph_memo_size", m.size);
  JsonObject algos;
  for (const ServerStats::AlgoSnapshot& a : stats_.algos()) {
    JsonObject entry;
    entry.add_uint("computed", a.computed)
        .add_uint("cache_hits", a.cache_hits)
        .add_uint("total_us", a.total_micros)
        .add_uint("p50_us", a.p50_micros)
        .add_uint("p90_us", a.p90_micros)
        .add_uint("max_us", a.max_micros);
    algos.add_raw(a.algo, entry.str());
  }
  o.add_raw("algos", algos.str());
  JsonObject journal;
  journal.add("enabled", journal_.is_open())
      .add_uint("replayed", journal_.recovery().replayed)
      .add_uint("truncated_bytes", journal_.recovery().truncated_bytes)
      .add("tail_truncated", journal_.recovery().tail_truncated)
      .add_uint("appends", journal_.appends())
      .add_uint("compactions", journal_.compactions());
  o.add_raw("journal", journal.str());
  return o.str();
}

}  // namespace tgs
