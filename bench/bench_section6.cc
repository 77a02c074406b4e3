// E7: the Theorem 6.1 construction — building the rotated Figure 6.1
// Armstrong database and verifying property (6.1) ("obeys exactly
// Gamma - delta") for growing k. The ObeysExactly sweep is timed and
// emitted to BENCH_section6.json.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "constructions/section6.h"
#include "core/satisfies.h"
#include "util/check.h"

namespace ccfp {
namespace {

void BM_BuildArmstrongDatabase(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Section6Construction c = MakeSection6(k);
  std::size_t tuples = 0;
  for (auto _ : state) {
    Database d = MakeSection6Armstrong(c, k / 2);
    tuples = d.TotalTuples();
    benchmark::DoNotOptimize(d);
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["tuples"] = static_cast<double>(tuples);
}

BENCHMARK(BM_BuildArmstrongDatabase)->RangeMultiplier(2)->Range(1, 64);

void BM_VerifyProperty61(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Section6Construction c = MakeSection6(k);
  Database d = MakeSection6Armstrong(c, 0);
  std::vector<Dependency> expected = Section6ExpectedSatisfied(c, 0);
  bool exact = false;
  for (auto _ : state) {
    exact = !ObeysExactly(d, c.universe, expected).has_value();
    benchmark::DoNotOptimize(exact);
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["universe"] = static_cast<double>(c.universe.size());
  state.counters["exact"] = exact ? 1 : 0;  // always 1: property (6.1)
}

BENCHMARK(BM_VerifyProperty61)->RangeMultiplier(2)->Range(1, 16);

/// Times the full property-(6.1) ObeysExactly sweep and writes
/// BENCH_section6.json (entries: n = k,
/// steps = universe size). Runs before the google-benchmark suite so the
/// file exists even when benchmarks are filtered out.
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("section6");
  for (std::size_t k : {4, 8, 12}) {
    if (smoke && k != 4) continue;
    Section6Construction c = MakeSection6(k);
    Database d = MakeSection6Armstrong(c, 0);
    std::vector<Dependency> expected = Section6ExpectedSatisfied(c, 0);
    WallNs wall = MeasureWallNs(smoke ? 1 : 5, [&] {
      CCFP_CHECK(!ObeysExactly(d, c.universe, expected).has_value());
    });
    reporter.Add("obeys_exactly", k, wall, c.universe.size());
    std::fprintf(stderr, "obeys_exactly k=%zu (%zu sentences): %.2f ms\n",
                 k, c.universe.size(), wall.median / 1e6);
  }
  reporter.WriteFile();
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
