// E8: the Theorem 7.1 construction — chase re-derivation of Lemma 7.2 and
// construction of the Lemma 7.9 witness databases, as n grows. The
// universe sweep over a chased witness is timed and emitted to
// BENCH_section7.json.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "chase/chase.h"
#include "constructions/section7.h"
#include "core/satisfies.h"
#include "util/check.h"

namespace ccfp {
namespace {

void BM_Lemma72Derivation(benchmark::State& state) {
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
  state.counters["sigma_implied"] = implied ? 1 : 0;  // Lemma 7.2: 1
}

BENCHMARK(BM_Lemma72Derivation)->RangeMultiplier(2)->Range(1, 16);

void BM_Lemma79Witness(benchmark::State& state) {
  // Chase-construct the witness for (phi - sigma) u (lambda - beta_0) and
  // confirm it breaks sigma while satisfying the premise families.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Section7Construction c = MakeSection7(n);
  std::vector<Fd> phi_minus_sigma;
  for (const Fd& fd : c.phi) {
    if (!(fd == c.sigma)) phi_minus_sigma.push_back(fd);
  }
  Ind beta0 = c.beta(0);
  std::vector<Ind> lambda_minus_beta;
  for (const Ind& ind : c.inds) {
    if (!(ind == beta0)) lambda_minus_beta.push_back(ind);
  }
  Chase chase(c.scheme, phi_minus_sigma, lambda_minus_beta);
  bool witness_ok = false;
  for (auto _ : state) {
    Database seed(c.scheme);
    std::uint64_t next_null = 1;
    Tuple t1(3), t2(3);
    for (AttrId a = 0; a < 3; ++a) {
      t1[a] = Value::Null(next_null++);
      t2[a] = (a == 0) ? t1[a] : Value::Null(next_null++);
    }
    seed.Insert(c.f, std::move(t1));
    seed.Insert(c.f, std::move(t2));
    Result<ChaseResult> result = chase.Run(std::move(seed));
    if (result.ok()) {
      witness_ok = !Satisfies(result->db, c.sigma);
    }
    benchmark::DoNotOptimize(result);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["violates_sigma"] = witness_ok ? 1 : 0;  // Lemma 7.9: 1
}

BENCHMARK(BM_Lemma79Witness)->RangeMultiplier(2)->Range(1, 16);

/// Chases the Section 7 universal model and times SatisfiedSubset over the
/// bounded sentence universe; BENCH_section7.json gets one entry per n
/// (steps = universe size).
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("section7");
  for (std::size_t n : {4, 8}) {
    if (smoke && n != 4) continue;
    Section7Construction c = MakeSection7(n);
    std::vector<Dependency> universe = Section7Universe(c);
    Chase chase(c.scheme, c.fds, c.inds);
    Database seed(c.scheme);
    std::size_t arity = c.scheme->relation(c.f).arity();
    Tuple t(arity);
    for (AttrId a = 0; a < arity; ++a) t[a] = Value::Null(a + 1);
    seed.Insert(c.f, std::move(t));
    Result<ChaseResult> chased = chase.Run(std::move(seed));
    CCFP_CHECK(chased.ok());
    WallNs wall = MeasureWallNs(smoke ? 1 : 5, [&] {
      benchmark::DoNotOptimize(SatisfiedSubset(chased->db, universe));
    });
    reporter.Add("universe_sweep", n, wall, universe.size());
    std::fprintf(stderr,
                 "universe_sweep n=%zu (%zu sentences over %zu tuples): "
                 "%.2f ms\n",
                 n, universe.size(), chased->db.TotalTuples(),
                 wall.median / 1e6);
  }
  reporter.WriteFile();
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
