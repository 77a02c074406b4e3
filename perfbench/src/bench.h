// Shared vocabulary of the repository benchmark: run arguments, timing,
// percentiles, the per-op outcome digest, and the result a workload hands
// back to main.cc for printing.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// num / den, or 0 when there is nothing to divide by.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spill_dir;
};

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Aggregate throughput of closed-loop callers. Each caller's op latencies
/// are cut into consecutive windows of `window` ops, and a window's rate is
/// its ops over the seconds spent inside them (the output checks between
/// ops are excluded). Returns the median window rate times the number of
/// callers: the typical rate, which a stall of a few ms (an fsync, a noisy
/// neighbour) moves far less than it moves the mean. A caller with fewer
/// than `window` ops contributes one window of all its ops.
inline double WindowedOpsPerSecond(
    const std::vector<std::vector<double>>& latencies, std::size_t window) {
  std::vector<double> rates;
  for (const std::vector<double>& lat : latencies) {
    std::size_t n = std::max<std::size_t>(1, lat.size() / window);
    std::size_t size = lat.size() < window ? lat.size() : window;
    for (std::size_t w = 0; w < n && size > 0; ++w) {
      double busy_ms = 0;
      for (std::size_t k = w * size; k < (w + 1) * size; ++k) busy_ms += lat[k];
      if (busy_ms > 0) rates.push_back(static_cast<double>(size) / (busy_ms / 1e3));
    }
  }
  return Median(rates) * static_cast<double>(latencies.size());
}

/// FNV-1a over per-op outcome words: equal for equal outcome sequences.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void Add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    Add(s.size());
  }
};

/// Number of leading ops per caller that enter the outcome digest. Every
/// run completes at least this many, so two runs of one seed digest the
/// same op prefix whatever their speed.
inline constexpr std::size_t kDigestOps = 48;

/// Output-check failures of one run (thread-safe; keeps the first few
/// messages for the log).
class CheckLog {
 public:
  void Fail(const std::string& message) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    if (messages_.size() < 8) messages_.push_back(message);
  }
  std::uint64_t failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  mutable std::mutex mu_;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// One measured value; main.cc attaches the unit BENCHMARK.json declares.
struct Metric {
  std::string name;
  double value = 0;
};

/// What one workload run reports; main.cc prints it as the result line.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Digest over the first kDigestOps ops of every caller, in caller order.
  std::uint64_t digest = 0;
  std::vector<std::string> errors;
};

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Busy-waits `ms` (the attribution self-test's injected delay; a sleep
/// would overshoot by the scheduler's tick).
void Delay(double ms);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
