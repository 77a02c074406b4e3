// Ablation (DESIGN.md E8/E12 companion): a fixed finite rule arsenal
// (Armstrong + IND1-3 + Propositions 4.1-4.3) versus the chase on the
// Section 7 family. The chase derives sigma = F: A -> C for every n; the
// arsenal never does — the executable content of Theorem 7.1 ("no k-ary
// axiomatization"), measured.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "chase/chase.h"
#include "constructions/section7.h"
#include "interact/derivation.h"
#include "util/check.h"

namespace ccfp {
namespace {

void BM_ArsenalOnSection7(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Section7Construction c = MakeSection7(n);
  bool derived = true;
  std::size_t trace = 0, derived_fds = 0, derived_inds = 0;
  for (auto _ : state) {
    MixedDerivation engine(c.scheme, c.SigmaDeps());
    Status st = engine.Saturate();
    if (st.ok()) {
      derived = engine.Derives(Dependency(c.sigma));
      trace = engine.trace().size();
      derived_fds = engine.fds().size();
      derived_inds = engine.inds().size();
    }
    benchmark::DoNotOptimize(engine);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["derives_sigma"] = derived ? 1 : 0;  // always 0 (Thm 7.1)
  state.counters["interaction_steps"] = static_cast<double>(trace);
  state.counters["fds"] = static_cast<double>(derived_fds);
  state.counters["inds"] = static_cast<double>(derived_inds);
}

BENCHMARK(BM_ArsenalOnSection7)->DenseRange(1, 6);

void BM_ChaseOnSection7(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Section7Construction c = MakeSection7(n);
  bool implied = false;
  for (auto _ : state) {
    Result<ChaseImplication> result =
        ChaseImplies(c.scheme, c.fds, c.inds, Dependency(c.sigma), Budget());
    if (result.ok()) implied = result->verdict == ImplicationVerdict::kImplied;
    benchmark::DoNotOptimize(result);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["derives_sigma"] = implied ? 1 : 0;  // always 1 (Lemma 7.2)
}

BENCHMARK(BM_ChaseOnSection7)->DenseRange(1, 6);

// On instances the arsenal CAN handle (Propositions 4.1-4.3 shaped), it is
// far cheaper than the chase — the trade the paper's Section 8 hints at
// when it recommends restricted fragments.
void BM_ArsenalOnProposition41(benchmark::State& state) {
  SchemePtr scheme = MakeScheme({{"R", {"X", "Y"}}, {"S", {"T", "U"}}});
  std::vector<Dependency> sigma = {
      Dependency(MakeInd(*scheme, "R", {"X", "Y"}, "S", {"T", "U"})),
      Dependency(MakeFd(*scheme, "S", {"T"}, {"U"}))};
  Dependency target(MakeFd(*scheme, "R", {"X"}, {"Y"}));
  bool derived = false;
  for (auto _ : state) {
    MixedDerivation engine(scheme, sigma);
    if (engine.Saturate().ok()) derived = engine.Derives(target);
    benchmark::DoNotOptimize(engine);
  }
  state.counters["derives"] = derived ? 1 : 0;  // 1
}

BENCHMARK(BM_ArsenalOnProposition41);

void BM_ChaseOnProposition41(benchmark::State& state) {
  SchemePtr scheme = MakeScheme({{"R", {"X", "Y"}}, {"S", {"T", "U"}}});
  std::vector<Fd> fds = {MakeFd(*scheme, "S", {"T"}, {"U"})};
  std::vector<Ind> inds = {
      MakeInd(*scheme, "R", {"X", "Y"}, "S", {"T", "U"})};
  Dependency target(MakeFd(*scheme, "R", {"X"}, {"Y"}));
  bool implied = false;
  for (auto _ : state) {
    Result<ChaseImplication> result =
        ChaseImplies(scheme, fds, inds, target, Budget());
    if (result.ok()) implied = result->verdict == ImplicationVerdict::kImplied;
    benchmark::DoNotOptimize(result);
  }
  state.counters["derives"] = implied ? 1 : 0;  // 1
}

BENCHMARK(BM_ChaseOnProposition41);

/// Arsenal-vs-chase pair on the Section 7 family (the ablation's
/// headline): steps = interaction-rule firings for the arsenal, chase
/// steps for the chase.
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("derivation");
  for (std::size_t n : {2u, 4u}) {
    if (smoke && n != 2) continue;
    Section7Construction c = MakeSection7(n);
    std::uint64_t arsenal_steps = 0;
    WallNs arsenal_wall = MeasureWallNs(smoke ? 1 : 5, [&] {
      MixedDerivation engine(c.scheme, c.SigmaDeps());
      CCFP_CHECK(engine.Saturate().ok());
      CCFP_CHECK(!engine.Derives(Dependency(c.sigma)));  // Theorem 7.1
      arsenal_steps = engine.trace().size();
    });
    std::uint64_t chase_steps = 0;
    WallNs chase_wall = MeasureWallNs(smoke ? 1 : 5, [&] {
      Result<ChaseImplication> implied = ChaseImplies(
          c.scheme, c.fds, c.inds, Dependency(c.sigma), Budget());
      // Lemma 7.2
      CCFP_CHECK(implied.ok() &&
                 implied->verdict == ImplicationVerdict::kImplied);
      chase_steps = 1;
    });
    reporter.Add("arsenal_section7", n, arsenal_wall, arsenal_steps);
    reporter.Add("chase_section7", n, chase_wall, chase_steps);
    std::fprintf(stderr,
                 "section7 n=%zu: arsenal %.2f ms (%llu firings, never "
                 "derives), chase %.2f ms (derives)\n",
                 n, arsenal_wall.median / 1e6,
                 static_cast<unsigned long long>(arsenal_steps),
                 chase_wall.median / 1e6);
  }
  reporter.WriteFile();
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
