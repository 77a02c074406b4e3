#ifndef CCFP_BENCH_REPORTER_H_
#define CCFP_BENCH_REPORTER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ccfp {

/// Wall time of one measured workload over its reps.
struct WallNs {
  std::uint64_t median = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
};

/// Shared machine-readable bench output. Each bench binary appends entries
/// (one per measured workload) and writes `BENCH_<bench>.json` next to the
/// working directory, so the perf trajectory across PRs can be diffed by
/// tooling instead of eyeballing google-benchmark console output.
///
/// Schema:
///   {"bench": "chase",
///    "host": {"nproc": 4, "compiler": "GNU 13.2.0",
///             "build_type": "Release"},
///    "entries": [{"name": "...", "n": 32, "wall_ns": 123456,
///                 "min_wall_ns": 120000, "max_wall_ns": 131000,
///                 "steps": 17, "peak_rss_bytes": 1048576},
///                ...]}
///
/// `wall_ns` is the median over the entry's reps, and `min_wall_ns` /
/// `max_wall_ns` are its fastest and slowest rep, so a report carries its
/// own spread (equal to the median for a single rep).
///
/// `host` stamps the logical core count and the compiler and build type
/// the bench was built with, so a committed report (bench/results/) says
/// what produced its numbers.
///
/// Entries recorded via AddThreaded additionally carry
/// `"threads": <count>` (omitted entirely for plain Add entries).
class BenchReporter {
 public:
  /// `bench` names the output file: BENCH_<bench>.json.
  explicit BenchReporter(std::string bench) : bench_(std::move(bench)) {}

  /// Records one measurement. `n` is the workload size parameter, `wall`
  /// its wall time over the reps (MeasureWallNs), and `steps` a
  /// workload-defined work counter (chase steps, tuples, nodes visited,
  /// ...) so throughput can be derived from wall time. The
  /// process's peak RSS at Add time is stamped onto the entry — the
  /// physical complement of the logical byte accounting in
  /// util/memory_budget.h (0 where the platform cannot report it).
  void Add(const std::string& name, std::uint64_t n, WallNs wall,
           std::uint64_t steps);

  /// Like Add, but stamps an executor thread count onto the entry (for
  /// sequential-vs-parallel pairs). `threads` must be >= 1; plain Add
  /// leaves the field out of the JSON entirely, so existing reports and
  /// their diff tooling are unaffected.
  void AddThreaded(const std::string& name, std::uint64_t n, WallNs wall,
                   std::uint64_t steps, unsigned threads);

  /// Current process peak resident set size in bytes (getrusage), or 0 if
  /// unavailable. Monotone over the process lifetime: entries added later
  /// report at least the peak of everything run before them.
  static std::uint64_t PeakRssBytes();

  /// Serializes all entries; stable field order, no external deps.
  std::string ToJson() const;

  /// Writes BENCH_<bench>.json into `dir` (default: current directory).
  /// Returns false (after logging to stderr) if the file cannot be written.
  bool WriteFile(const std::string& dir = ".") const;

 private:
  struct Entry {
    std::string name;
    std::uint64_t n = 0;
    WallNs wall;
    std::uint64_t steps = 0;
    std::uint64_t peak_rss_bytes = 0;
    unsigned threads = 0;  ///< 0 = unset; omitted from the JSON
  };

  std::string bench_;
  std::vector<Entry> entries_;
};

/// Convenience: the median, fastest and slowest wall time of `reps` runs
/// of `fn`, in nanoseconds. `fn` must be idempotent; each rep runs it once.
template <typename Fn>
WallNs MeasureWallNs(int reps, Fn&& fn);

}  // namespace ccfp

#include <algorithm>
#include <chrono>

namespace ccfp {

template <typename Fn>
WallNs MeasureWallNs(int reps, Fn&& fn) {
  std::vector<std::uint64_t> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    samples.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count()));
  }
  std::sort(samples.begin(), samples.end());
  return WallNs{samples[samples.size() / 2], samples.front(), samples.back()};
}

}  // namespace ccfp

#endif  // CCFP_BENCH_REPORTER_H_
