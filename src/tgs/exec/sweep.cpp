#include "tgs/exec/sweep.h"

#include <algorithm>
#include <stdexcept>

#include "tgs/exec/thread_pool.h"
#include "tgs/util/rng.h"

namespace tgs {

double SweepPoint::param(const std::string& name) const {
  for (const auto& [k, v] : params)
    if (k == name) return v;
  throw std::invalid_argument("SweepPoint: no axis named '" + name + "'");
}

const std::string& SweepPoint::label(const std::string& name) const {
  for (const auto& [k, v] : labels)
    if (k == name) return v;
  throw std::invalid_argument("SweepPoint: no labelled axis named '" + name +
                              "'");
}

Sweep& Sweep::axis(std::string name, std::vector<double> values) {
  axes_.push_back({std::move(name), std::move(values), {}});
  return *this;
}

Sweep& Sweep::axis(std::string name, std::vector<double> values,
                   std::vector<std::string> labels) {
  if (labels.size() != values.size())
    throw std::invalid_argument("Sweep: axis '" + name + "' has " +
                                std::to_string(values.size()) +
                                " values but " + std::to_string(labels.size()) +
                                " labels");
  axes_.push_back({std::move(name), std::move(values), std::move(labels)});
  return *this;
}

std::size_t Sweep::size() const {
  std::size_t n = 1;
  for (const Axis& a : axes_) n *= a.values.size();
  return n;
}

std::vector<SweepPoint> Sweep::expand() const {
  std::vector<SweepPoint> points;
  points.reserve(size());
  // Odometer over axis value indices; the last axis advances fastest, so
  // extending it keeps earlier points' indices (and seeds) stable.
  std::vector<std::size_t> digit(axes_.size(), 0);
  const auto exhausted = [&] {
    for (const Axis& a : axes_)
      if (a.values.empty()) return true;
    return false;
  }();
  std::uint64_t index = 0;
  bool done = exhausted;
  while (!done) {
    SweepPoint p;
    p.index = index++;
    p.params.reserve(axes_.size());
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      p.params.emplace_back(axes_[a].name, axes_[a].values[digit[a]]);
      if (!axes_[a].labels.empty())
        p.labels.emplace_back(axes_[a].name, axes_[a].labels[digit[a]]);
    }
    points.push_back(std::move(p));
    done = true;
    for (std::size_t a = axes_.size(); a-- > 0;) {
      if (++digit[a] < axes_[a].values.size()) {
        done = false;
        break;
      }
      digit[a] = 0;
    }
  }
  return points;
}

void run_jobs(const std::vector<Job>& jobs, int threads, ResultSink& sink) {
  sink.start(jobs.size());
  ThreadPool pool(threads);
  for (const Job& job : jobs) {
    pool.submit([&sink, &job] {
      JobResult r;
      r.index = job.ctx.index;
      try {
        r.records = job.fn(job.ctx);
      } catch (const std::exception& e) {
        r.error = e.what();
      } catch (...) {
        r.error = "unknown exception";
      }
      sink.submit(std::move(r));
    });
  }
  pool.wait_idle();
  pool.shutdown();
  sink.finish();
  // Job-code exceptions are captured in JobResult::error above, so a failed
  // pool task means the sink itself rejected a submission (duplicate or
  // out-of-range index in caller-built jobs) -- a programming error that
  // must not pass silently as missing records.
  if (pool.tasks_failed() > 0)
    throw std::logic_error("run_jobs: " + std::to_string(pool.tasks_failed()) +
                           " result submission(s) rejected by the sink");
}

void run_sweep(const Sweep& sweep, std::uint64_t master_seed, int threads,
               const SweepJobFn& fn, ResultSink& sink) {
  const std::vector<SweepPoint> points = sweep.expand();
  std::vector<Job> jobs;
  jobs.reserve(points.size());
  for (const SweepPoint& p : points) {
    Job job;
    job.ctx.index = p.index;
    job.ctx.master_seed = master_seed;
    job.ctx.seed = derive_seed(master_seed, p.index);
    job.fn = [&fn, p](const JobContext& ctx) { return fn(ctx, p); };
    jobs.push_back(std::move(job));
  }
  run_jobs(jobs, threads, sink);
}

}  // namespace tgs
