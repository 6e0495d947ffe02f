#include "bench_util.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "tgs/util/rng.h"

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(xs.size() - 1, static_cast<std::size_t>(rank) - 1);
  return xs[idx];
}

double mean(const std::vector<double>& xs) {
  double sum = 0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

bool tail_supported(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return static_cast<double>(n) - rank >= 10;
}

void RunReport::fail(const std::string& why) {
  correct = false;
  if (errors.size() < 10) errors.push_back(why);
}

void RunReport::note(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  notes.emplace_back(buf);
}

double reference_kernel_ms() {
  static std::vector<std::uint32_t> data(32768);
  tgs::Rng rng(0x5eedu);
  for (auto& x : data) x = static_cast<std::uint32_t>(rng());
  const auto t0 = Clock::now();
  std::sort(data.begin(), data.end());
  const double ms = seconds_since(t0) * 1e3;
  // Keep the sort observable so it cannot be elided.
  if (data.front() > data.back()) std::fputs("", stderr);
  return ms;
}

double machine_adjusted(double rate, double ref_ms, double steal_pct) {
  return rate * (ref_ms / kNominalRefMs) / (1.0 - steal_pct / 100.0);
}

void Digest::add(const std::string& line) {
  for (const unsigned char c : line) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  h_ ^= '\n';
  h_ *= 1099511628211ull;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

StealMeter::Sample StealMeter::read() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  Sample s;
  unsigned long long v = 0;
  for (int field = 0; field < 10 && in >> v; ++field) {
    s.total += v;
    if (field == 7) s.steal = v;
  }
  return s;
}

double StealMeter::percent() const {
  const Sample now = read();
  const double total = static_cast<double>(now.total - start_.total);
  return total > 0 ? 100.0 * static_cast<double>(now.steal - start_.steal) / total : 0.0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double process_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib * 1024.0 / 1e6;
    }
    std::getline(in, key);
  }
  return 0.0;
}

}  // namespace perfbench
