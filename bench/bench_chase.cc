// E11: FD+IND chase behaviour — the Section 7 schema chase terminates
// (its IND graph is acyclic) and scales with n; cyclic IND sets exhaust
// the budget (the undecidability surface of Mitchell / Chandra-Vardi).
// Also the incremental-vs-naive engine comparison on a deep IND cascade,
// emitted to BENCH_chase.json for machine-readable perf tracking.
#include <cstdio>
#include <string_view>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "bench/workloads.h"
#include "chase/chase.h"
#include "constructions/section7.h"
#include "reference/chase.h"
#include "util/check.h"
#include "util/strings.h"

namespace ccfp {
namespace {

// Deep IND cascade (bench/workloads.h): restart-loop engines pay
// O(levels^2), the delta-driven engine O(levels).

void BM_DeepCascade(benchmark::State& state) {
  const std::size_t levels = static_cast<std::size_t>(state.range(0));
  const bool incremental = state.range(1) != 0;
  CascadeInstance instance = MakeDeepCascade(levels);
  Chase chase(instance.scheme, instance.fds, instance.inds);
  Database seed = CascadeSeed(instance, 8);
  std::uint64_t tuples = 0;
  for (auto _ : state) {
    Result<ChaseResult> result = incremental
                                     ? chase.Run(seed)
                                     : reference::NaiveChase(chase, seed);
    if (result.ok()) tuples = result->db.TotalTuples();
    benchmark::DoNotOptimize(result);
  }
  state.counters["levels"] = static_cast<double>(levels);
  state.counters["incremental"] = incremental ? 1 : 0;
  state.counters["tuples"] = static_cast<double>(tuples);
}

BENCHMARK(BM_DeepCascade)
    ->ArgsProduct({{32, 64, 128, 256}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_Section7ChaseLemma72(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Section7Construction c = MakeSection7(n);
  bool implied = false;
  for (auto _ : state) {
    Result<bool> result =
        ChaseImplies(c.scheme, c.fds, c.inds, Dependency(c.sigma));
    if (result.ok()) implied = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["implied"] = implied ? 1 : 0;  // Lemma 7.2: always 1
  state.counters["deps"] = static_cast<double>(c.fds.size() + c.inds.size());
}

BENCHMARK(BM_Section7ChaseLemma72)->RangeMultiplier(2)->Range(1, 32);

void BM_CyclicChaseHitsBudget(benchmark::State& state) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}});
  std::vector<Fd> fds = {MakeFd(*scheme, "R", {"A"}, {"B"})};
  std::vector<Ind> inds = {MakeInd(*scheme, "R", {"A"}, "R", {"B"})};
  ChaseOptions options;
  options.max_tuples = static_cast<std::uint64_t>(state.range(0));
  options.max_steps = options.max_tuples * 4;
  std::uint64_t exhausted = 0;
  for (auto _ : state) {
    Result<bool> result =
        ChaseImplies(scheme, fds, inds,
                     Dependency(MakeInd(*scheme, "R", {"B"}, "R", {"A"})),
                     options);
    if (!result.ok()) ++exhausted;
    benchmark::DoNotOptimize(result);
  }
  state.counters["budget"] = static_cast<double>(state.range(0));
  state.counters["exhausted"] = static_cast<double>(exhausted);
}

BENCHMARK(BM_CyclicChaseHitsBudget)->RangeMultiplier(4)->Range(64, 4096);

void BM_ChaseFixpointSize(benchmark::State& state) {
  // Size of the chased universal model for the Section 7 scheme, seeded
  // with one generic F tuple — grows linearly with n.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Section7Construction c = MakeSection7(n);
  Chase chase(c.scheme, c.fds, c.inds);
  std::size_t tuples = 0;
  for (auto _ : state) {
    Database seed(c.scheme);
    std::size_t arity = c.scheme->relation(c.f).arity();
    Tuple t(arity);
    for (AttrId a = 0; a < arity; ++a) t[a] = Value::Null(a + 1);
    seed.Insert(c.f, std::move(t));
    Result<ChaseResult> result = chase.Run(std::move(seed));
    if (result.ok()) tuples = result->db.TotalTuples();
    benchmark::DoNotOptimize(result);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["tuples"] = static_cast<double>(tuples);
}

BENCHMARK(BM_ChaseFixpointSize)->RangeMultiplier(2)->Range(1, 64);

/// Times the deep-cascade workload under both engines and writes
/// BENCH_chase.json. Runs before the google-benchmark suite so the file
/// exists even when benchmarks are filtered out.
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("chase");
  for (std::size_t levels : {64, 128, 256}) {
    if (smoke && levels != 64) continue;
    CascadeInstance instance = MakeDeepCascade(levels);
    Chase chase(instance.scheme, instance.fds, instance.inds);
    Database seed = CascadeSeed(instance, 8);
    std::uint64_t steps[2] = {0, 0};
    std::uint64_t wall[2] = {0, 0};
    for (int engine = 0; engine < 2; ++engine) {
      wall[engine] = MedianWallNs(smoke ? 1 : 5, [&] {
        Result<ChaseResult> result = engine == 1
                                         ? chase.Run(seed)
                                         : reference::NaiveChase(chase, seed);
        CCFP_CHECK(result.ok());
        CCFP_CHECK(result->outcome == ChaseOutcome::kFixpoint);
        steps[engine] = result->steps;
      });
    }
    reporter.Add("deep_cascade_naive", levels, wall[0], steps[0]);
    reporter.Add("deep_cascade_incremental", levels, wall[1], steps[1]);
    std::fprintf(stderr,
                 "deep_cascade L=%zu: naive %.2f ms, incremental %.2f ms, "
                 "speedup %.1fx\n",
                 levels, wall[0] / 1e6, wall[1] / 1e6,
                 static_cast<double>(wall[0]) /
                     static_cast<double>(wall[1] == 0 ? 1 : wall[1]));
  }
  reporter.WriteFile();
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
