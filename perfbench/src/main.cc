// The repository benchmark's workload process. One invocation runs one
// workload in this fresh process and prints, as its last stdout line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Before it go
// a `stamp` line (host, build, and source identity) and a `digest` line
// (per-op outcomes over each caller's first ops; equal for equal seeds).
//
//   perfbench --workload mixed_solve|exact_solve|session_churn --seed N
//             --seconds S --trace 0|1 --spill-dir DIR [--spans FILE]
//             [--git-sha SHA] [--source-digest HEX]
//   perfbench --selftest [--seed N]
//
// perfbench/run.py builds this binary and is the command to run.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "runners.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Delay(double ms) {
  Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(ms));
  while (Clock::now() < until) {
  }
}

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

/// Every workload reports every metric of its mode, in this order (the
/// `end_to_end` and `per_layer` lists of BENCHMARK.json). A layer a
/// workload does not exercise reads 0.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms"},
    {"decided_frac", "frac"},  {"ok_frac", "frac"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricName kPerLayer[] = {
    {"service.open.ms", "ms"},
    {"service.core_build.ms", "ms"},
    {"service.core_reuse_frac", "frac"},
    {"service.overhead.ms", "ms"},
    {"service.rejected", "count"},
    {"core.parser.ms", "ms"},
    {"fd.closure.ms", "ms"},
    {"ind.decide.ms", "ms"},
    {"ind.expressions", "count"},
    {"ind.rule_star.ms", "ms"},
    {"interact.unary.ms", "ms"},
    {"interact.derivation.ms", "ms"},
    {"interact.derivation.decided_frac", "frac"},
    {"chase.ms", "ms"},
    {"chase.steps", "count"},
    {"chase.fixpoint_frac", "frac"},
    {"chase.wasted_ms", "ms"},
    {"search.portfolio.ms", "ms"},
    {"search.candidates", "count"},
    {"search.rungs_run", "count"},
    {"search.rungs_skipped", "count"},
    {"search.find_frac", "frac"},
    {"verify.counterexample.ms", "ms"},
    {"verify.witness_cache.hit_frac", "frac"},
    {"verify.witness_cache.evictions", "count"},
    {"core.workspace.append.ms", "ms"},
    {"core.workspace.values_interned", "count"},
    {"core.workspace.partitions_built", "count"},
    {"core.workspace.bytes", "B"},
    {"core.snapshot.save.ms", "ms"},
    {"core.snapshot.load.ms", "ms"},
    {"core.snapshot.bytes", "B"},
    {"mine.ms", "ms"},
    {"armstrong.extend.ms", "ms"},
    {"armstrong.tuples", "count"},
    {"trace.coverage", "frac"},
    {"trace.overhead_frac", "frac"},
    {"open_p50_ms", "ms"},
    {"append_p50_ms", "ms"},
    {"mine_p50_ms", "ms"},
    {"evict_p50_ms", "ms"},
    {"revive_p50_ms", "ms"},
    {"extend_p50_ms", "ms"},
    {"spill_bytes_per_tuple", "B"},
};

/// The metrics JSON of one run: every name of the mode's list, in order.
/// A name the workload reported that the list lacks is a benchmark bug.
std::string MetricsJson(const std::vector<Metric>& reported, bool trace) {
  std::map<std::string, double> values;
  for (const Metric& m : reported) values[m.name] = m.value;
  std::string out;
  auto emit = [&](const auto& list) {
    for (const MetricName& m : list) {
      auto it = values.find(m.name);
      double value = 0.0;
      if (it != values.end()) {
        value = it->second;
        values.erase(it);
      }
      char text[64];
      std::snprintf(text, sizeof text, "%.9g",
                    std::isfinite(value) ? value : 0.0);
      if (!out.empty()) out += ", ";
      out += std::string("\"") + m.name + "\": {\"value\": " + text +
             ", \"unit\": \"" + m.unit + "\"}";
    }
  };
  if (trace) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }
  if (!values.empty()) {
    std::fprintf(stderr, "perfbench: metric %s is not declared\n",
                 values.begin()->first.c_str());
    std::exit(2);
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// The attribution self-test: a fixed delay injected into one layer's span
/// wrapper must show up in that layer's self time, by about the delay times
/// the layer's calls per op, and nowhere else.
int SelfTest(std::uint64_t seed) {
  const InjectedDelay delay{Layer::kFdClosure, 0.2};
  const std::size_t ops = 1000;
  AttributionSample s = MeasureAttribution(seed, delay, ops);
  double expected = delay.ms * s.calls_per_op;
  bool ok = expected > 0;
  std::printf("attribution self-test: %.3f ms injected into every %s span "
              "(%.3f calls/op, expected rise %.4f ms/op)\n",
              delay.ms, LayerName(delay.layer), s.calls_per_op, expected);
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    Layer layer = static_cast<Layer>(l);
    double rise = s.delayed_ms[l] - s.base_ms[l];
    bool target = layer == delay.layer;
    bool pass =
        target ? std::fabs(rise - expected) <= 0.2 * expected
               : std::fabs(rise) <= std::max(0.05 * expected,
                                             0.5 * s.base_ms[l] + 0.002);
    ok = ok && pass;
    std::printf("  %-24s base %9.4f ms/op  delayed %9.4f ms/op  rise %+9.4f"
                "  %s\n",
                LayerName(layer), s.base_ms[l], s.delayed_ms[l], rise,
                pass ? "ok" : "FAIL");
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  Args args;
  std::string spans, git_sha = "unknown", source_digest = "unknown";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) Usage("flag without a value");
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spill-dir") {
      args.spill_dir = value;
    } else if (flag == "--spans") {
      spans = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (selftest) return SelfTest(args.seed);
  if (args.seconds <= 0) Usage("--seconds must be positive");

  std::printf(
      "stamp {\"git_sha\": \"%s\", \"source_digest\": \"%s\", \"nproc\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"seed\": %llu, "
      "\"workload\": \"%s\", \"callers\": %zu, \"trace\": %d, "
      "\"snapshot_write\": \"atomic+fsync (SnapshotWriteOptions defaults)\"}\n",
      JsonEscape(git_sha).c_str(), JsonEscape(source_digest).c_str(),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, static_cast<unsigned long long>(args.seed),
      JsonEscape(args.workload).c_str(), kCallers,
      args.trace ? 1 : 0);

  RunResult r;
  if (args.workload == "mixed_solve" || args.workload == "exact_solve") {
    r = RunSolveWorkload(args, args.workload == "mixed_solve", spans);
  } else if (args.workload == "session_churn") {
    if (args.spill_dir.empty()) Usage("session_churn needs --spill-dir");
    r = RunChurnWorkload(args, spans);
  } else {
    Usage("unknown --workload");
  }

  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::printf("digest %016llx over the first %zu ops of each caller\n",
              static_cast<unsigned long long>(r.digest), kDigestOps);
  bool correct = r.failed == 0 && r.attempted > 0;
  std::string metrics = MetricsJson(r.metrics, args.trace);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  return correct ? 0 : 1;
}
