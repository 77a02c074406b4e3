#include "bench/reporter.h"

#include <cstdio>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#ifndef CCFP_BENCH_BUILD_TYPE
#define CCFP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef CCFP_BENCH_COMPILER
#define CCFP_BENCH_COMPILER "unknown"
#endif

namespace ccfp {

namespace {

/// Escapes the handful of characters that can appear in bench names.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::uint64_t BenchReporter::PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // already bytes
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // kilobytes
#endif
#else
  return 0;
#endif
}

void BenchReporter::Add(const std::string& name, std::uint64_t n, WallNs wall,
                        std::uint64_t steps) {
  entries_.push_back(Entry{name, n, wall, steps, PeakRssBytes(), 0});
}

void BenchReporter::AddThreaded(const std::string& name, std::uint64_t n,
                                WallNs wall, std::uint64_t steps,
                                unsigned threads) {
  entries_.push_back(Entry{name, n, wall, steps, PeakRssBytes(), threads});
}

std::string BenchReporter::ToJson() const {
  std::string out =
      "{\"bench\": \"" + JsonEscape(bench_) + "\", \"host\": {\"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": \"" + JsonEscape(CCFP_BENCH_COMPILER) +
      "\", \"build_type\": \"" + JsonEscape(CCFP_BENCH_BUILD_TYPE) +
      "\"}, \"entries\": [";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + JsonEscape(e.name) + "\", \"n\": " +
           std::to_string(e.n) +
           ", \"wall_ns\": " + std::to_string(e.wall.median) +
           ", \"min_wall_ns\": " + std::to_string(e.wall.min) +
           ", \"max_wall_ns\": " + std::to_string(e.wall.max) +
           ", \"steps\": " + std::to_string(e.steps) +
           ", \"peak_rss_bytes\": " + std::to_string(e.peak_rss_bytes);
    if (e.threads != 0) out += ", \"threads\": " + std::to_string(e.threads);
    out += "}";
  }
  out += "]}\n";
  return out;
}

bool BenchReporter::WriteFile(const std::string& dir) const {
  std::string path = dir + "/BENCH_" + bench_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchReporter: cannot open %s\n", path.c_str());
    return false;
  }
  std::string json = ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "BenchReporter: wrote %s\n", path.c_str());
  return true;
}

}  // namespace ccfp
