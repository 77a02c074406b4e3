// E1: the Corollary 3.2 decision procedure on random IND sets — cost
// tracks the reachable expression space, which grows with IND width and
// relation count (polynomial for fixed width, per the paper's "k-ary or
// less" discussion; exponential in general).
#include <string_view>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "ind/implication.h"
#include "ind/special.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ccfp {
namespace {

struct Instance {
  SchemePtr scheme;
  std::vector<Ind> sigma;
  Ind target;
};

Instance RandomInstance(std::size_t relations, std::size_t arity,
                        std::size_t inds, std::size_t width,
                        std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t r = 0; r < relations; ++r) {
    std::vector<std::string> attrs;
    for (std::size_t a = 0; a < arity; ++a) {
      attrs.push_back(StrCat("A", a));
    }
    rels.emplace_back(StrCat("R", r), attrs);
  }
  Instance instance;
  instance.scheme = MakeScheme(rels);
  auto random_seq = [&](std::size_t w) {
    std::vector<AttrId> all(arity);
    for (AttrId a = 0; a < arity; ++a) all[a] = a;
    for (std::size_t i = arity; i > 1; --i) {
      std::swap(all[i - 1], all[rng.Below(i)]);
    }
    all.resize(w);
    return all;
  };
  for (std::size_t i = 0; i < inds; ++i) {
    RelId r1 = static_cast<RelId>(rng.Below(relations));
    RelId r2 = static_cast<RelId>(rng.Below(relations));
    instance.sigma.push_back(
        Ind{r1, random_seq(width), r2, random_seq(width)});
  }
  RelId t1 = static_cast<RelId>(rng.Below(relations));
  RelId t2 = static_cast<RelId>(rng.Below(relations));
  instance.target = Ind{t1, random_seq(width), t2, random_seq(width)};
  return instance;
}

// Sweep the number of INDs at fixed width 2.
void BM_IndDecisionVsSigmaSize(benchmark::State& state) {
  Instance instance = RandomInstance(
      /*relations=*/8, /*arity=*/4,
      /*inds=*/static_cast<std::size_t>(state.range(0)), /*width=*/2,
      /*seed=*/7);
  IndImplication engine(instance.scheme, instance.sigma);
  std::uint64_t visited = 0;
  for (auto _ : state) {
    Result<IndDecision> decision = engine.Decide(instance.target);
    visited = decision.ok() ? decision->expressions_visited : 0;
    benchmark::DoNotOptimize(decision);
  }
  state.counters["inds"] = static_cast<double>(state.range(0));
  state.counters["visited"] = static_cast<double>(visited);
}

BENCHMARK(BM_IndDecisionVsSigmaSize)->RangeMultiplier(2)->Range(4, 256);

// Sweep the IND width at fixed Sigma size: the expression space (and so the
// worst-case cost) is sum_rel P(arity, width) — exponential in width.
void BM_IndDecisionVsWidth(benchmark::State& state) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  Instance instance = RandomInstance(/*relations=*/4, /*arity=*/8,
                                     /*inds=*/48, width, /*seed=*/11);
  IndImplication engine(instance.scheme, instance.sigma);
  std::uint64_t visited = 0;
  for (auto _ : state) {
    Result<IndDecision> decision = engine.Decide(instance.target);
    visited = decision.ok() ? decision->expressions_visited : 0;
    benchmark::DoNotOptimize(decision);
  }
  state.counters["width"] = static_cast<double>(width);
  state.counters["visited"] = static_cast<double>(visited);
  state.counters["expr_space"] =
      static_cast<double>(ExpressionSpaceBound(*instance.scheme, width));
}

BENCHMARK(BM_IndDecisionVsWidth)->DenseRange(1, 6);

// Chain instances: Sigma a path R_0 -> R_1 -> ... -> R_L; decision walks
// the whole chain.
void BM_IndDecisionChain(benchmark::State& state) {
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t r = 0; r <= length; ++r) {
    rels.emplace_back(StrCat("R", r),
                      std::vector<std::string>{"A", "B"});
  }
  SchemePtr scheme = MakeScheme(rels);
  std::vector<Ind> sigma;
  for (std::size_t r = 0; r < length; ++r) {
    sigma.push_back(Ind{static_cast<RelId>(r),
                        {0, 1},
                        static_cast<RelId>(r + 1),
                        {0, 1}});
  }
  Ind target{0, {0, 1}, static_cast<RelId>(length), {0, 1}};
  IndImplication engine(scheme, sigma);
  for (auto _ : state) {
    Result<IndDecision> decision = engine.Decide(target);
    benchmark::DoNotOptimize(decision);
  }
  state.counters["chain"] = static_cast<double>(length);
  state.SetComplexityN(static_cast<std::int64_t>(length));
}

BENCHMARK(BM_IndDecisionChain)
    ->RangeMultiplier(2)
    ->Range(8, 1024)
    ->Complexity();

/// Times the chain decision workload and writes BENCH_ind_decision.json
/// (steps = expressions visited by the BFS).
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("ind_decision");
  for (std::size_t length : {64, 256, 1024}) {
    if (smoke && length != 64) continue;
    std::vector<std::pair<std::string, std::vector<std::string>>> rels;
    for (std::size_t r = 0; r <= length; ++r) {
      rels.emplace_back(StrCat("R", r), std::vector<std::string>{"A", "B"});
    }
    SchemePtr scheme = MakeScheme(rels);
    std::vector<Ind> sigma;
    for (std::size_t r = 0; r < length; ++r) {
      sigma.push_back(Ind{static_cast<RelId>(r),
                          {0, 1},
                          static_cast<RelId>(r + 1),
                          {0, 1}});
    }
    Ind target{0, {0, 1}, static_cast<RelId>(length), {0, 1}};
    IndImplication engine(scheme, sigma);
    std::uint64_t visited = 0;
    WallNs wall = MeasureWallNs(smoke ? 1 : 5, [&] {
      Result<IndDecision> decision = engine.Decide(target);
      CCFP_CHECK(decision.ok());
      visited = decision->expressions_visited;
    });
    reporter.Add("chain_decide", length, wall, visited);
  }
  reporter.WriteFile();
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
