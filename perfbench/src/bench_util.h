// Shared pieces of tgs_e2e, the end-to-end benchmark: sample statistics,
// the metric report, the machine reference kernel and result digests.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Options every workload receives from the command line.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_bin;  // path of the tgs_serve binary (serve_mix)
  std::string work_dir;   // scratch directory inside the checkout
};

/// Nearest-rank quantile of an unsorted sample (q in [0,1]); 0 when empty.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }
double mean(const std::vector<double>& xs);

/// True when at least 10 samples lie above the nearest-rank q-quantile,
/// the condition under which a tail percentile is reported at all.
bool tail_supported(std::size_t n, double q);

/// One run's outcome: the counts the JSON line carries plus every metric
/// the workload measured, by name.
struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few correctness failures
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the JSON result (sample counts,
  /// metrics the gate does not carry, the reference kernel).
  std::vector<std::string> notes;

  void fail(const std::string& why);
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// The fixed machine reference kernel: sorts a seeded array of 32,768
/// elements. Its time tracks how fast this machine runs at the moment,
/// independent of any change to the scheduler code. Returns milliseconds.
double reference_kernel_ms();

/// The reference kernel's time at the speed adjusted rates are scaled to,
/// about its median on the 4-vCPU VM the benchmark was developed on.
constexpr double kNominalRefMs = 2.5;

/// A measured rate scaled to a machine that runs at nominal speed and gets
/// all of its CPU time: rate x (ref_ms / kNominalRefMs) / (1 - steal share).
/// ref_ms is the run's median reference-kernel time, steal_pct the
/// StealMeter reading over the same stretch. Neither depends on the program,
/// so the adjustment removes the machine's speed phases and steal from the
/// figure but not a change in the program's own cost.
double machine_adjusted(double rate, double ref_ms, double steal_pct);

/// FNV-1a over a stream of result lines; stable across platforms.
class Digest {
 public:
  void add(const std::string& line);
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Share of all CPU time the hypervisor gave to other guests (steal in
/// /proc/stat) between two readings, in percent. A machine-state
/// indicator like the reference kernel, not a property of the program.
class StealMeter {
 public:
  StealMeter() : start_(read()) {}
  double percent() const;

 private:
  struct Sample {
    unsigned long long total = 0, steal = 0;
  };
  static Sample read();
  Sample start_;
};

/// Returns freed heap memory to the system and restarts this process's
/// VmHWM from its current resident set, so a later peak reading covers
/// only what runs after the call.
void reset_peak_rss();

/// VmHWM (peak resident set) of a live process from /proc, in MB; 0 when
/// unreadable.
double process_peak_rss_mb(int pid);

}  // namespace perfbench
