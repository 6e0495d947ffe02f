// Sweep expansion and execution: the top half of the experiment engine.
//
// A Sweep declares a parameter grid (named axes); expand() flattens it
// into a deterministic list of SweepPoints, one per job, indexed densely in
// row-major order (last axis fastest). Each point's seed is
// derive_seed(master_seed, index), so every grid cell owns a private RNG
// stream -- repetitions are one more axis -- and the mapping is stable
// under thread count.
//
// run_sweep()/run_jobs() execute the points on a ThreadPool and deliver
// results to a ResultSink; with the sink's ordered folding this makes the
// whole pipeline bit-identical for --threads=1 and --threads=N.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tgs/exec/job.h"
#include "tgs/exec/result_sink.h"

namespace tgs {

/// One point of the expanded grid.
struct SweepPoint {
  std::uint64_t index = 0;
  std::vector<std::pair<std::string, double>> params;  // axis order
  std::vector<std::pair<std::string, std::string>> labels;  // labelled axes

  /// Value of axis `name`; throws std::invalid_argument when absent.
  double param(const std::string& name) const;

  /// Label of labelled axis `name`; throws std::invalid_argument when the
  /// axis is absent or unlabelled.
  const std::string& label(const std::string& name) const;
};

class Sweep {
 public:
  /// Append an axis. Expansion order is row-major in declaration order.
  Sweep& axis(std::string name, std::vector<double> values);

  /// Append a labelled axis: values[i] is the numeric grid key (pivot row,
  /// seed pairing) and labels[i] its display name -- e.g. machine
  /// topologies keyed by link count, or algorithms keyed by registry
  /// index. Sizes must match (std::invalid_argument otherwise).
  Sweep& axis(std::string name, std::vector<double> values,
              std::vector<std::string> labels);

  /// Product of axis sizes. Empty axes contribute 0.
  std::size_t size() const;

  std::vector<SweepPoint> expand() const;

 private:
  struct Axis {
    std::string name;
    std::vector<double> values;
    std::vector<std::string> labels;  // empty, or one per value
  };
  std::vector<Axis> axes_;
};

/// Run pre-built jobs on `threads` workers, delivering into `sink`
/// (start/submit/finish included). A throwing job yields a JobResult whose
/// `error` is the exception's what().
void run_jobs(const std::vector<Job>& jobs, int threads, ResultSink& sink);

using SweepJobFn =
    std::function<std::vector<Record>(const JobContext&, const SweepPoint&)>;

/// Expand `sweep` and execute `fn` once per point. Each job's context
/// carries seed = derive_seed(master_seed, point.index).
void run_sweep(const Sweep& sweep, std::uint64_t master_seed, int threads,
               const SweepJobFn& fn, ResultSink& sink);

}  // namespace tgs
