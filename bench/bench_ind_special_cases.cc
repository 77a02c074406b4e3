// E3: the polynomial special cases from the end of Section 3 — unary INDs
// (digraph reachability), typed INDs R[X] <= S[X] (per-name reachability),
// and width-bounded INDs — against the general BFS on the same instances.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "ind/implication.h"
#include "ind/special.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ccfp {
namespace {

SchemePtr ChainScheme(std::size_t relations, std::size_t arity) {
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t r = 0; r < relations; ++r) {
    std::vector<std::string> attrs;
    for (std::size_t a = 0; a < arity; ++a) attrs.push_back(StrCat("A", a));
    rels.emplace_back(StrCat("R", r), attrs);
  }
  return MakeScheme(rels);
}

// Random unary IND set over `relations` relations.
std::vector<Ind> RandomUnaryInds(const DatabaseScheme& scheme,
                                 std::size_t count, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Ind> sigma;
  for (std::size_t i = 0; i < count; ++i) {
    RelId r1 = static_cast<RelId>(rng.Below(scheme.size()));
    RelId r2 = static_cast<RelId>(rng.Below(scheme.size()));
    AttrId a1 = static_cast<AttrId>(rng.Below(scheme.relation(r1).arity()));
    AttrId a2 = static_cast<AttrId>(rng.Below(scheme.relation(r2).arity()));
    sigma.push_back(Ind{r1, {a1}, r2, {a2}});
  }
  return sigma;
}

void BM_UnaryGraph(benchmark::State& state) {
  const std::size_t relations = static_cast<std::size_t>(state.range(0));
  SchemePtr scheme = ChainScheme(relations, 3);
  std::vector<Ind> sigma = RandomUnaryInds(*scheme, relations * 3, 5);
  Ind target{0, {0}, static_cast<RelId>(relations - 1), {0}};
  UnaryIndGraph graph(scheme, sigma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.Implies(target));
  }
  state.counters["relations"] = static_cast<double>(relations);
}

BENCHMARK(BM_UnaryGraph)->RangeMultiplier(4)->Range(8, 512);

void BM_UnaryViaGeneralBfs(benchmark::State& state) {
  const std::size_t relations = static_cast<std::size_t>(state.range(0));
  SchemePtr scheme = ChainScheme(relations, 3);
  std::vector<Ind> sigma = RandomUnaryInds(*scheme, relations * 3, 5);
  Ind target{0, {0}, static_cast<RelId>(relations - 1), {0}};
  IndImplication engine(scheme, sigma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Implies(target));
  }
  state.counters["relations"] = static_cast<double>(relations);
}

BENCHMARK(BM_UnaryViaGeneralBfs)->RangeMultiplier(4)->Range(8, 512);

// Typed INDs along a relation chain with projections.
void BM_TypedInds(benchmark::State& state) {
  const std::size_t relations = static_cast<std::size_t>(state.range(0));
  SchemePtr scheme = ChainScheme(relations, 3);
  std::vector<Ind> sigma;
  for (std::size_t r = 0; r + 1 < relations; ++r) {
    sigma.push_back(Ind{static_cast<RelId>(r),
                        {0, 1, 2},
                        static_cast<RelId>(r + 1),
                        {0, 1, 2}});
  }
  Ind target{0, {0, 1}, static_cast<RelId>(relations - 1), {0, 1}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(TypedIndImplies(*scheme, sigma, target));
  }
  state.counters["relations"] = static_cast<double>(relations);
}

BENCHMARK(BM_TypedInds)->RangeMultiplier(4)->Range(8, 512);

void BM_TypedViaGeneralBfs(benchmark::State& state) {
  const std::size_t relations = static_cast<std::size_t>(state.range(0));
  SchemePtr scheme = ChainScheme(relations, 3);
  std::vector<Ind> sigma;
  for (std::size_t r = 0; r + 1 < relations; ++r) {
    sigma.push_back(Ind{static_cast<RelId>(r),
                        {0, 1, 2},
                        static_cast<RelId>(r + 1),
                        {0, 1, 2}});
  }
  Ind target{0, {0, 1}, static_cast<RelId>(relations - 1), {0, 1}};
  IndImplication engine(scheme, sigma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Implies(target));
  }
  state.counters["relations"] = static_cast<double>(relations);
}

BENCHMARK(BM_TypedViaGeneralBfs)->RangeMultiplier(4)->Range(8, 512);

// Width-bounded decision: the expression space bound P(arity, w) * rels is
// polynomial for fixed w; report it alongside the measured cost.
void BM_WidthBounded(benchmark::State& state) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  SchemePtr scheme = ChainScheme(6, 6);
  SplitMix64 rng(17);
  std::vector<Ind> sigma;
  for (int i = 0; i < 36; ++i) {
    RelId r1 = static_cast<RelId>(rng.Below(6));
    RelId r2 = static_cast<RelId>(rng.Below(6));
    std::vector<AttrId> all{0, 1, 2, 3, 4, 5};
    for (std::size_t j = 6; j > 1; --j) {
      std::swap(all[j - 1], all[rng.Below(j)]);
    }
    std::vector<AttrId> lhs(all.begin(), all.begin() + width);
    for (std::size_t j = 6; j > 1; --j) {
      std::swap(all[j - 1], all[rng.Below(j)]);
    }
    std::vector<AttrId> rhs(all.begin(), all.begin() + width);
    sigma.push_back(Ind{r1, lhs, r2, rhs});
  }
  Ind target = sigma.front();
  target.rhs_rel = 5;
  IndImplication engine(scheme, sigma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Decide(target));
  }
  state.counters["width"] = static_cast<double>(width);
  state.counters["expr_space"] =
      static_cast<double>(ExpressionSpaceBound(*scheme, width));
}

BENCHMARK(BM_WidthBounded)->DenseRange(1, 5);

/// Special-case engines vs the general BFS on one chain size each: the
/// polynomial fragments the end of Section 3 promises, measured
/// (steps = relations in the chain).
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("ind_special_cases");
  const std::size_t relations = 64;
  SchemePtr scheme = ChainScheme(relations, 3);
  {
    std::vector<Ind> sigma = RandomUnaryInds(*scheme, relations * 3, 5);
    Ind target{0, {0}, static_cast<RelId>(relations - 1), {0}};
    UnaryIndGraph graph(scheme, sigma);
    WallNs graph_wall =
        MeasureWallNs(smoke ? 1 : 9, [&] { graph.Implies(target); });
    IndImplication engine(scheme, sigma);
    WallNs bfs_wall =
        MeasureWallNs(smoke ? 1 : 9, [&] { engine.Implies(target); });
    reporter.Add("unary_graph", relations, graph_wall, relations);
    reporter.Add("unary_general_bfs", relations, bfs_wall, relations);
  }
  {
    std::vector<Ind> sigma;
    for (std::size_t r = 0; r + 1 < relations; ++r) {
      sigma.push_back(Ind{static_cast<RelId>(r),
                          {0, 1, 2},
                          static_cast<RelId>(r + 1),
                          {0, 1, 2}});
    }
    Ind target{0, {0, 1}, static_cast<RelId>(relations - 1), {0, 1}};
    WallNs typed_wall =
        MeasureWallNs(smoke ? 1 : 9,
                      [&] { TypedIndImplies(*scheme, sigma, target); });
    IndImplication engine(scheme, sigma);
    WallNs bfs_wall =
        MeasureWallNs(smoke ? 1 : 9, [&] { engine.Implies(target); });
    reporter.Add("typed", relations, typed_wall, relations);
    reporter.Add("typed_general_bfs", relations, bfs_wall, relations);
  }
  reporter.WriteFile();
  std::fprintf(stderr, "BENCH_ind_special_cases.json written\n");
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
