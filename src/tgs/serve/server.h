// The scheduling-as-a-service daemon core.
//
// Architecture (one Server instance = one daemon):
//
//   accept thread (serve_forever)
//     -> one reader thread per connection: parses request lines, answers
//        stats/ping/shutdown inline, resolves + fingerprints schedule
//        requests and serves cache hits without ever touching the queue;
//        a graph text seen before gets its fingerprint from the GraphMemo,
//        so a hit on it is answered without parsing the graph
//     -> bounded admission into a ThreadPool of scheduler workers; a full
//        queue rejects deterministically with an "overloaded" status
//        carrying the current depth (honest backpressure, never blocking
//        the reader)
//     -> each worker binds a thread-local SchedWorkspace (the PR-4 model:
//        zero steady-state allocation, graph attributes computed once per
//        request) and writes its response line directly to the requesting
//        connection under that connection's write mutex -- responses on a
//        pipelined connection may interleave out of request order, which
//        is what the echoed `id` field is for.
//
// The schedule cache and the graph memo are one BoundedLru each
// (serve/cache.h). Workers and journal replay both store into the cache
// through cache_insert(), the one place an insert failure (memory, or the
// scripted cache_oom fault) is absorbed and counted. Event counts go to
// ServerStats' counter table (serve/stats.h), which render_stats() walks.
//
// Results are byte-identical to direct Scheduler::run / ApnScheduler::run
// calls on the same inputs: the server adds routing, not policy.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tgs/exec/thread_pool.h"
#include "tgs/serve/cache.h"
#include "tgs/serve/persist.h"
#include "tgs/serve/protocol.h"
#include "tgs/serve/socket.h"
#include "tgs/serve/stats.h"

namespace tgs {

struct ServeOptions {
  std::string socket_path = "/tmp/tgs_serve.sock";
  /// Scheduler worker threads; < 1 = hardware concurrency.
  int workers = 0;
  /// Max schedule jobs admitted but unfinished before rejection. From
  /// queue_capacity - queue_capacity/4 inflight on, low-priority cache
  /// misses are shed instead of queued.
  std::size_t queue_capacity = 256;
  /// Schedule-cache entries, and graph-memo entries (0 disables both).
  std::size_t cache_capacity = 1024;

  /// Journal file for crash-safe cache persistence; empty = in-memory
  /// only. On startup the valid prefix is replayed into the cache.
  std::string journal_path;
  /// fsync the journal after every Nth append (1 = every append; 0 =
  /// leave syncing to the OS).
  int journal_fsync_every = 1;
  /// Compact the journal down to the live cache contents after this many
  /// appends since the last compaction (0 = never compact).
  int journal_compact_every = 4096;

  /// Deadline applied to schedule requests that carry none; 0 = none.
  int default_deadline_ms = 0;
  /// Hard cap on any request's effective deadline (applies even to
  /// requests with deadline_ms=0); 0 = no cap.
  int max_deadline_ms = 0;

  /// SO_RCVTIMEO/SO_SNDTIMEO on accepted connections, so a stalled or
  /// vanished peer cannot pin a reader thread forever; 0 = blocking.
  int io_timeout_ms = 0;

  /// Per-request line bound; oversized requests get a structured
  /// bad_request instead of growing the read buffer without limit.
  std::size_t max_request_bytes = UnixConn::kMaxLine;
};

class Server {
 public:
  /// Binds the listening socket; throws std::runtime_error on failure.
  explicit Server(ServeOptions opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept loop. Returns after request_stop() (from any thread, a signal
  /// waiter, or a client "shutdown" op) once in-flight work has drained
  /// and every connection thread has been joined.
  void serve_forever();

  /// Begin shutdown: stop admitting, wake the accept loop. Thread-safe and
  /// idempotent; returns immediately (serve_forever does the draining).
  void request_stop();

  const std::string& socket_path() const { return listener_.path(); }
  int num_workers() const { return pool_.size(); }

  /// Introspection for tests and the stats op.
  ScheduleCache& cache() { return cache_; }
  Journal& journal() { return journal_; }

 private:
  struct ConnCtx;
  struct ResolvedRequest;

  void handle_connection(const std::shared_ptr<ConnCtx>& ctx);
  void handle_line(const std::shared_ptr<ConnCtx>& ctx,
                   const std::string& line);
  void handle_schedule(const std::shared_ptr<ConnCtx>& ctx,
                       ServeRequest req);
  std::string render_stats(const std::string& id) const;
  /// cache_.insert, absorbing std::bad_alloc (real, or the scripted
  /// cache_oom fault) as a counted failure; true when the entry was stored.
  bool cache_insert(const std::string& key, const CachedSchedule& value);
  void reap_finished_connections(bool join_all);

  static void write_response(const std::shared_ptr<ConnCtx>& ctx,
                             const std::string& line);

  ServeOptions opt_;
  UnixListener listener_;
  ThreadPool pool_;
  ScheduleCache cache_;
  GraphMemo memo_;
  Journal journal_;
  ServerStats stats_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> inflight_{0};

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<ConnCtx>> conns_;
};

}  // namespace tgs
