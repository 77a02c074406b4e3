// E2: the Section 3 superpolynomial family. For gamma of maximal order
// f(m) (Landau's function) the instance sigma(gamma) |= sigma(gamma^{-1})
// forces the decision procedure through exactly f(m) - 1 expression steps:
// log f(m) ~ sqrt(m log m), so the step count is superpolynomial in m even
// though the input is a single IND.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "constructions/permutation_family.h"
#include "ind/implication.h"
#include "util/check.h"
#include "util/landau.h"

namespace ccfp {
namespace {

void BM_LandauInstance(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  LandauInstance instance = MakeLandauInstance(m);
  IndImplication engine(instance.family.scheme, {instance.premise});
  IndDecisionOptions options;
  options.max_expressions = 1u << 26;
  std::uint64_t visited = 0;
  bool implied = false;
  for (auto _ : state) {
    Result<IndDecision> decision = engine.Decide(instance.target, options);
    if (decision.ok()) {
      visited = decision->expressions_visited;
      implied = decision->implied;
    }
    benchmark::DoNotOptimize(decision);
  }
  state.counters["m"] = static_cast<double>(m);
  state.counters["f(m)"] =
      static_cast<double>(static_cast<std::uint64_t>(LandauF(m)));
  state.counters["visited"] = static_cast<double>(visited);
  state.counters["implied"] = implied ? 1 : 0;
}

// f(m): 4, 6, 15, 30, 140, 210, 420, 840, 4620, 55440 (m = 4..48) — the
// paper's "superpolynomial number of steps".
BENCHMARK(BM_LandauInstance)
    ->Arg(4)
    ->Arg(5)
    ->Arg(8)
    ->Arg(10)
    ->Arg(16)
    ->Arg(17)
    ->Arg(19)
    ->Arg(24)
    ->Arg(30)
    ->Arg(48);

// Contrast: the transposition generators imply *every* IND over R (the
// paper's blow-up example for the naive closure) — but any single target is
// still decided by BFS without enumerating all m! of them.
void BM_TranspositionGenerators(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  PermutationFamily family = MakePermutationFamily(m);
  std::vector<Ind> sigma = family.TranspositionInds();
  // Target: the full reversal permutation.
  std::vector<std::uint32_t> rev(m);
  for (std::size_t i = 0; i < m; ++i) {
    rev[i] = static_cast<std::uint32_t>(m - 1 - i);
  }
  Ind target = family.SigmaOf(Permutation::Create(rev).value());
  IndImplication engine(family.scheme, sigma);
  std::uint64_t visited = 0;
  for (auto _ : state) {
    Result<IndDecision> decision = engine.Decide(target);
    if (decision.ok()) visited = decision->expressions_visited;
    benchmark::DoNotOptimize(decision);
  }
  state.counters["m"] = static_cast<double>(m);
  state.counters["visited"] = static_cast<double>(visited);
}

BENCHMARK(BM_TranspositionGenerators)->DenseRange(3, 7);

/// The superpolynomial Landau instance and the transposition-generator
/// contrast (steps = BFS expressions visited — the paper's "number of
/// expression steps").
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("permutation_family");
  for (std::size_t m : {10u, 16u}) {
    if (smoke && m != 10) continue;
    LandauInstance instance = MakeLandauInstance(m);
    IndImplication engine(instance.family.scheme, {instance.premise});
    IndDecisionOptions options;
    options.max_expressions = 1u << 26;
    std::uint64_t visited = 0;
    WallNs wall = MeasureWallNs(smoke ? 1 : 5, [&] {
      Result<IndDecision> decision = engine.Decide(instance.target, options);
      CCFP_CHECK(decision.ok() && decision->implied);
      visited = decision->expressions_visited;
    });
    reporter.Add("landau_instance", m, wall, visited);
  }
  {
    const std::size_t m = 6;
    PermutationFamily family = MakePermutationFamily(m);
    std::vector<Ind> sigma = family.TranspositionInds();
    std::vector<std::uint32_t> rev(m);
    for (std::size_t i = 0; i < m; ++i) {
      rev[i] = static_cast<std::uint32_t>(m - 1 - i);
    }
    Ind target = family.SigmaOf(Permutation::Create(rev).value());
    IndImplication engine(family.scheme, sigma);
    std::uint64_t visited = 0;
    WallNs wall = MeasureWallNs(smoke ? 1 : 5, [&] {
      Result<IndDecision> decision = engine.Decide(target);
      CCFP_CHECK(decision.ok());
      visited = decision->expressions_visited;
    });
    reporter.Add("transposition_generators", m, wall, visited);
  }
  reporter.WriteFile();
  std::fprintf(stderr, "BENCH_permutation_family.json written\n");
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
