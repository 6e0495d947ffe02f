// Deterministic fault injection for the serving stack.
//
// Every failure mode the daemon must survive -- interrupted syscalls,
// short reads/writes, stalled workers, torn journal records, allocation
// failure on cache insert -- is a named *fault point* compiled into the
// production code path. A FaultPlan arms points with scripted rules
// (skip N hits, fire M times, optional argument, optional seeded
// percentage), so a test can write "the 4th journal append is torn" or
// "the first 10 reads take an EINTR" as data and assert the exact
// structured error that must come back. No #ifdef test builds: what the
// tests exercise is the binary that ships.
//
// Cost when no plan is armed (production): one relaxed atomic load per
// hook -- measured in the existing perf gates as noise.
//
// Spec grammar (CLI --faults= / env TGS_FAULTS, clauses comma-separated):
//
//   clause  := "seed=" N
//            | point ["@" skip] ["*" count | "*"] [":" arg] ["~" percent]
//   point   := accept_eintr | read_eintr | read_short | write_eintr
//            | write_short | worker_stall | journal_torn | cache_oom
//
//   skip    hits to pass through before firing        (default 0)
//   count   times to fire once reached; bare "*" = unlimited (default 1)
//   arg     integer parameter: stall milliseconds (worker_stall, default
//           100), bytes per short read/write (read_short/write_short,
//           default 1), framed bytes actually written (journal_torn,
//           default: half the record)
//   percent fire on only this % of eligible hits, decided by a hash of
//           (seed, point, hit index) -- deterministic for a fixed seed
//
// Examples:
//   read_eintr*10                 first ten reads are interrupted
//   worker_stall@1:250            the 2nd scheduled job stalls 250 ms
//   journal_torn@3                the 4th journal append is torn mid-record
//   write_short*:1~25,seed=7      a quarter of writes deliver 1 byte
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace tgs {

enum class FaultPoint {
  kAcceptEintr,    // UnixListener::accept sees a (simulated) EINTR
  kReadEintr,      // UnixConn::read_line's read(2) is interrupted
  kReadShort,      // read(2) delivers only `arg` bytes
  kWriteEintr,     // UnixConn::write_line's send(2) is interrupted
  kWriteShort,     // send(2) accepts only `arg` bytes
  kWorkerStall,    // a scheduler worker sleeps `arg` ms before running
  kJournalTorn,    // a journal append writes a partial record, as if the
                   // process died mid-write; the journal seals itself
  kCacheOom,       // a schedule-cache insert throws std::bad_alloc
  kCount
};

/// One armed point's script. Defaults mirror the spec grammar above.
struct FaultRule {
  std::uint64_t skip = 0;               // hits to pass through first
  std::uint64_t count = 1;              // firings once reached; ~0ull = inf
  std::int64_t arg = 0;                 // 0 = point-specific default
  std::uint32_t percent = 100;          // of eligible hits that fire
};

/// The process-wide fault script. Thread-safe; hooks are zero-cost (one
/// relaxed load) while no point is armed. Tests arm/clear it directly;
/// the daemon arms it once at startup from --faults / $TGS_FAULTS.
class FaultPlan {
 public:
  static FaultPlan& global();

  void arm(FaultPoint p, FaultRule rule);

  /// Parse and arm a full spec string (see the grammar above). Throws
  /// std::invalid_argument naming the offending clause.
  void arm_spec(const std::string& spec);

  /// Disarm everything and zero the hit/fired counters.
  void clear();

  /// True and the rule's argument (via `arg`, if non-null) when point `p`
  /// fires on this hit. Counts the hit either way.
  bool fire(FaultPoint p, std::int64_t* arg = nullptr);

  /// Times `p` actually fired since the last clear().
  std::uint64_t fired(FaultPoint p) const;

  /// The inlined hook the production code calls.
  static bool hit(FaultPoint p, std::int64_t* arg = nullptr) {
    FaultPlan& f = global();
    if (f.armed_points_.load(std::memory_order_relaxed) == 0) return false;
    return f.fire(p, arg);
  }

 private:
  /// Base seed of the deterministic percent decisions (default 1); set by
  /// the spec's `seed=` clause.
  void set_seed(std::uint64_t seed);

  struct PointState {
    bool armed = false;
    FaultRule rule;
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
  };

  std::atomic<int> armed_points_{0};
  mutable std::mutex mu_;
  std::array<PointState, static_cast<std::size_t>(FaultPoint::kCount)> points_;
  std::uint64_t seed_ = 1;
};

}  // namespace tgs
