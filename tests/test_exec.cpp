// Tests for the experiment-execution engine: thread pool lifecycle, sweep
// expansion, JSONL formatting, and the headline guarantee -- identical
// results (pivot cells AND serialized records) at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>

#include "tgs/exec/result_sink.h"
#include "tgs/exec/sweep.h"
#include "tgs/exec/thread_pool.h"
#include "tgs/gen/rgnos.h"
#include "tgs/harness/registry.h"
#include "tgs/harness/runner.h"
#include "tgs/util/rng.h"

namespace tgs {
namespace {

TEST(ThreadPool, RunsEveryTaskPastExhaustion) {
  // Far more tasks than workers: the queue must absorb the excess.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 1000);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, SingleWorkerPreservesFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 64; ++i)
    pool.submit([&order, i] { order.push_back(i); });
  pool.wait_idle();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, WaitIdleAllowsFurtherSubmissions) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.submit([&done] { ++done; });
  pool.wait_idle();
  pool.submit([&done] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPool, ShutdownDrainsQueueAndRejectsNewWork) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.shutdown();
  EXPECT_EQ(done.load(), 100);
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  pool.shutdown();  // idempotent
}

TEST(ThreadPool, CountsThrowingTasks) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  pool.submit([] {});
  pool.wait_idle();
  EXPECT_EQ(pool.tasks_failed(), 1u);
}

TEST(ThreadPool, StopWithoutDrainDiscardsUnstartedTasks) {
  ThreadPool pool(1);
  std::atomic<int> done{0};
  std::atomic<bool> started{false};
  std::atomic<bool> queued_all{false};
  // First task holds the single worker until (a) the 50 tasks behind it are
  // all queued and (b) the queue has been emptied, leaving only this task
  // in flight -- which, with the worker parked here, only
  // stop(drain=false)'s discard can do. That makes the discard
  // deterministic: no queued task can ever start.
  pool.submit([&pool, &started, &queued_all] {
    started.store(true);
    while (!queued_all.load() || pool.queue_depth() != 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  // Wait until the blocker is *running* (off the queue), so exactly the 50
  // tasks below are in the queue when stop discards it.
  while (!started.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int i = 0; i < 50; ++i)
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  queued_all.store(true);
  pool.stop(/*drain=*/false);
  EXPECT_EQ(done.load(), 0);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  pool.stop(false);  // idempotent
}

TEST(ThreadPool, StopWithDrainMatchesShutdown) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.stop(/*drain=*/true);
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, QueueDepthCountsQueuedAndRunning) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.queue_depth(), 0u);
  std::atomic<bool> release{false};
  pool.submit([&release] {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  pool.submit([] {});
  // Two admitted tasks, whether or not the worker has picked up the
  // blocker yet: queued + running, so a running task is never missed.
  EXPECT_EQ(pool.queue_depth(), 2u);
  release.store(true);
  pool.wait_idle();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(Sweep, ExpansionCountsAndOrder) {
  Sweep sweep;
  sweep.axis("a", {1, 2}).axis("b", {10, 20, 30}).axis("r", {0, 1, 2, 3});
  EXPECT_EQ(sweep.size(), 24u);
  const auto points = sweep.expand();
  ASSERT_EQ(points.size(), 24u);
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].index, i);
  // The last axis varies fastest, then the one before it.
  EXPECT_EQ(points[0].param("a"), 1);
  EXPECT_EQ(points[0].param("b"), 10);
  EXPECT_EQ(points[0].param("r"), 0);
  EXPECT_EQ(points[3].param("r"), 3);
  EXPECT_EQ(points[4].param("b"), 20);
  EXPECT_EQ(points[12].param("a"), 2);
  EXPECT_THROW(points[0].param("missing"), std::invalid_argument);
}

TEST(Sweep, EmptyAxisExpandsToNothing) {
  Sweep sweep;
  sweep.axis("a", {1, 2}).axis("empty", {});
  EXPECT_EQ(sweep.size(), 0u);
  EXPECT_TRUE(sweep.expand().empty());
}

TEST(Sweep, NoAxesIsOnePoint) {
  const Sweep sweep;
  EXPECT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep.expand().size(), 1u);
}

TEST(Sweep, DerivedSeedsAreDistinctPerJob) {
  Sweep sweep;
  std::vector<double> reps(50);
  for (std::size_t r = 0; r < reps.size(); ++r)
    reps[r] = static_cast<double>(r);
  sweep.axis("v", {1, 2, 3, 4}).axis("rep", reps);
  std::set<std::uint64_t> seeds;
  for (const SweepPoint& p : sweep.expand())
    seeds.insert(derive_seed(123, p.index));
  EXPECT_EQ(seeds.size(), 200u);
}

TEST(Sweep, LabelledAxisExposesLabels) {
  Sweep sweep;
  sweep.axis("machine", {8, 12}, {"ring8", "hcube3"}).axis("i", {0, 1, 2});
  const auto points = sweep.expand();
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0].label("machine"), "ring8");
  EXPECT_EQ(points[0].param("machine"), 8);
  EXPECT_EQ(points[3].label("machine"), "hcube3");
  EXPECT_EQ(points[3].param("machine"), 12);
  // "i" is unlabelled; asking for its label is an error.
  EXPECT_THROW(points[0].label("i"), std::invalid_argument);
  EXPECT_THROW(points[0].label("missing"), std::invalid_argument);
}

TEST(Sweep, LabelledAxisSizeMismatchThrows) {
  Sweep sweep;
  EXPECT_THROW(sweep.axis("m", {1, 2, 3}, {"a", "b"}), std::invalid_argument);
}

TEST(Jsonl, EscapingAndShortestDoubles) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_double(10.0), "10");
  EXPECT_EQ(json_double(0.5), "0.5");
  EXPECT_EQ(json_double(1.0 / 3.0), "0.3333333333333333");
  JsonObject obj;
  obj.add("name", "MCP").add("nsl", 1.25).add_int("v", -3).add("ok", true);
  EXPECT_EQ(obj.str(), "{\"name\":\"MCP\",\"nsl\":1.25,\"v\":-3,\"ok\":true}");
}

TEST(ResultSink, StreamsInJobOrderRegardlessOfArrival) {
  std::ostringstream os;
  JsonlWriter writer(os);
  ResultSink sink("t", &writer);
  sink.start(3);
  const auto result = [](std::uint64_t index, const char* column) {
    JobResult r;
    r.index = index;
    Record rec;
    rec.pivot = "p";
    rec.column = column;
    r.records.push_back(rec);
    return r;
  };
  sink.submit(result(2, "c"));
  EXPECT_EQ(os.str(), "");  // jobs 0-1 still outstanding
  sink.submit(result(0, "a"));
  sink.submit(result(1, "b"));
  sink.finish();
  const std::string text = os.str();
  const auto pos_a = text.find("\"a\""), pos_b = text.find("\"b\""),
             pos_c = text.find("\"c\"");
  EXPECT_LT(pos_a, pos_b);
  EXPECT_LT(pos_b, pos_c);
  EXPECT_THROW(sink.submit(result(0, "late")), std::logic_error);
}

// -------------------------- adversarial completion-order reorder tests ----

JobResult one_record_result(std::uint64_t index) {
  JobResult r;
  r.index = index;
  Record rec;
  rec.pivot = "p";
  rec.row = static_cast<double>(index);
  rec.column = "col" + std::to_string(index);
  rec.value = static_cast<double>(index) * 1.5;
  r.records.push_back(std::move(rec));
  return r;
}

std::string sink_bytes_for_order(const std::vector<std::uint64_t>& order) {
  std::ostringstream os;
  JsonlWriter writer(os);
  ResultSink sink("adv", &writer);
  sink.start(order.size());
  for (const std::uint64_t index : order)
    sink.submit(one_record_result(index));
  sink.finish();
  return os.str();
}

TEST(ResultSink, ReverseCompletionOrderBuffersEverythingThenStreams) {
  // Worst case for the reorder buffer: job 0 arrives last, so nothing may
  // be written until the very end -- and then everything, in job order.
  const std::size_t n = 64;
  std::ostringstream os;
  JsonlWriter writer(os);
  ResultSink sink("adv", &writer);
  sink.start(n);
  for (std::uint64_t index = n; index-- > 1;) {
    sink.submit(one_record_result(index));
    EXPECT_EQ(os.str(), "") << "leaked output while job 0 outstanding";
  }
  sink.submit(one_record_result(0));  // fills the gap: full flush
  sink.finish();

  std::vector<std::uint64_t> in_order(n);
  for (std::uint64_t i = 0; i < n; ++i) in_order[i] = i;
  EXPECT_EQ(os.str(), sink_bytes_for_order(in_order));
}

TEST(ResultSink, RandomCompletionOrderIsByteIdenticalToSerial) {
  const std::size_t n = 97;
  std::vector<std::uint64_t> in_order(n), shuffled(n);
  for (std::uint64_t i = 0; i < n; ++i) in_order[i] = shuffled[i] = i;
  // Deterministic Fisher-Yates on a fixed LCG, so the adversarial order is
  // reproducible run to run.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = n; i-- > 1;) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(shuffled[i], shuffled[(state >> 33) % (i + 1)]);
  }
  EXPECT_NE(shuffled, in_order);
  EXPECT_EQ(sink_bytes_for_order(shuffled), sink_bytes_for_order(in_order));
}

TEST(ResultSink, InterleavedGapsFlushExactlyTheCompletedPrefix) {
  std::ostringstream os;
  JsonlWriter writer(os);
  ResultSink sink("adv", &writer);
  sink.start(5);
  sink.submit(one_record_result(1));
  sink.submit(one_record_result(3));
  EXPECT_EQ(os.str(), "");  // job 0 missing: nothing flushed
  sink.submit(one_record_result(0));
  std::string text = os.str();  // prefix 0..1 flushed, 2 still blocks 3
  EXPECT_NE(text.find("\"col0\""), std::string::npos);
  EXPECT_NE(text.find("\"col1\""), std::string::npos);
  EXPECT_EQ(text.find("\"col3\""), std::string::npos);
  sink.submit(one_record_result(2));
  text = os.str();  // 2 unblocks 3
  EXPECT_NE(text.find("\"col3\""), std::string::npos);
  EXPECT_EQ(text.find("\"col4\""), std::string::npos);
  sink.submit(one_record_result(4));
  sink.finish();
  EXPECT_NE(os.str().find("\"col4\""), std::string::npos);
}

TEST(ResultSink, RejectsBadIndices) {
  ResultSink sink("t");
  sink.start(2);
  JobResult r;
  r.index = 5;
  EXPECT_THROW(sink.submit(std::move(r)), std::out_of_range);
  JobResult a;
  a.index = 0;
  sink.submit(std::move(a));
  JobResult dup;
  dup.index = 0;
  EXPECT_THROW(sink.submit(std::move(dup)), std::logic_error);
}

// A small but real sweep: RGNOS graphs through two schedulers. Used to pin
// the engine's core guarantee at different thread counts.
struct MiniSweepOutput {
  std::string jsonl;
  std::vector<std::pair<double, double>>
      cells;  // (row, mean NSL) per algorithm in fold order
  std::size_t errors = 0;
};

MiniSweepOutput run_mini_sweep(int threads, std::uint64_t seed) {
  Sweep sweep;
  sweep.axis("v", {20, 30, 40}).axis("rep", {0, 1, 2});
  std::ostringstream os;
  JsonlWriter writer(os);
  ResultSink sink("mini", &writer);
  run_sweep(
      sweep, seed, threads,
      [](const JobContext& jc, const SweepPoint& pt) {
        RgnosParams params;
        params.num_nodes = static_cast<NodeId>(pt.param("v"));
        params.ccr = 1.0;
        params.parallelism = 2;
        params.seed = jc.seed;
        const TaskGraph g = rgnos_graph(params);
        std::vector<Record> records;
        for (const char* name : {"MCP", "DCP"}) {
          const RunResult rr = run_scheduler(*make_scheduler(name), g, {});
          records.push_back(record_from_run(rr, "nsl", pt.param("v"), rr.nsl));
        }
        return records;
      },
      sink);
  MiniSweepOutput out;
  out.jsonl = os.str();
  out.errors = sink.num_errors();
  PivotStats stats("v", {"MCP", "DCP"});
  sink.fold("nsl", stats);
  for (const double v : {20.0, 30.0, 40.0})
    for (const char* name : {"MCP", "DCP"}) {
      const StatAccumulator* cell = stats.cell(v, name);
      out.cells.emplace_back(v, cell ? cell->mean() : -1.0);
    }
  return out;
}

TEST(Engine, IdenticalResultsAtAnyThreadCount) {
  const MiniSweepOutput serial = run_mini_sweep(1, 42);
  const MiniSweepOutput parallel = run_mini_sweep(8, 42);
  EXPECT_EQ(serial.errors, 0u);
  EXPECT_EQ(parallel.errors, 0u);
  EXPECT_FALSE(serial.jsonl.empty());
  EXPECT_EQ(serial.jsonl, parallel.jsonl);  // byte-identical stream
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].first, parallel.cells[i].first);
    EXPECT_EQ(serial.cells[i].second, parallel.cells[i].second);  // exact
  }
}

TEST(Engine, DifferentSeedsChangeResults) {
  const MiniSweepOutput a = run_mini_sweep(2, 1);
  const MiniSweepOutput b = run_mini_sweep(2, 2);
  EXPECT_NE(a.jsonl, b.jsonl);
}

TEST(Engine, DuplicateJobIndicesAreAProgrammingError) {
  // Sink rejections are not job errors; run_jobs must refuse to return a
  // silently incomplete result set.
  std::vector<Job> jobs(2);
  for (Job& job : jobs) {
    job.ctx.index = 0;  // both claim slot 0
    job.fn = [](const JobContext&) { return std::vector<Record>{}; };
  }
  ResultSink sink("dup");
  EXPECT_THROW(run_jobs(jobs, 2, sink), std::logic_error);
}

TEST(Engine, ThrowingJobIsReportedNotFatal) {
  Sweep sweep;
  sweep.axis("v", {1, 2});
  ResultSink sink("err");
  run_sweep(
      sweep, 7, 2,
      [](const JobContext&, const SweepPoint& pt) -> std::vector<Record> {
        if (pt.param("v") == 2) throw std::runtime_error("job exploded");
        return {};
      },
      sink);
  EXPECT_EQ(sink.num_errors(), 1u);
  EXPECT_EQ(sink.first_error(), "job exploded");
  EXPECT_EQ(sink.results().size(), 2u);
}

}  // namespace
}  // namespace tgs
