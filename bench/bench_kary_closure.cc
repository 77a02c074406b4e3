// E12: Theorem 5.1 machinery — cost of verifying k-ary closedness of the
// Section 6 Gamma via counterexample databases, as a function of k. The
// subset enumeration is the dominating factor: C(|Gamma|, k) blows up.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "axiom/kary.h"
#include "axiom/oracle.h"
#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "constructions/section6.h"
#include "util/check.h"

namespace ccfp {
namespace {

void BM_FindKaryEscapeSection6(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Section6Construction c = MakeSection6(k);
  std::vector<Database> witnesses;
  for (std::size_t j = 0; j <= k; ++j) {
    witnesses.push_back(MakeSection6Armstrong(c, j));
  }
  CounterexampleOracle oracle(std::move(witnesses));
  std::uint64_t queries = 0;
  bool closed = false;
  for (auto _ : state) {
    KaryStats stats;
    auto escape = FindKaryEscape(c.universe, c.gamma, oracle, k, &stats);
    queries = stats.oracle_queries;
    closed = !escape.has_value();
    benchmark::DoNotOptimize(escape);
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["gamma"] = static_cast<double>(c.gamma.size());
  state.counters["universe"] = static_cast<double>(c.universe.size());
  state.counters["queries"] = static_cast<double>(queries);
  state.counters["closed"] = closed ? 1 : 0;  // Theorem 6.1: always 1
}

BENCHMARK(BM_FindKaryEscapeSection6)->DenseRange(1, 2);

void BM_FullEscapeSection6(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Section6Construction c = MakeSection6(k);
  UnaryFiniteOracle oracle(c.scheme);
  bool escaped = false;
  for (auto _ : state) {
    auto escape = FindFullEscape(c.universe, c.gamma, oracle);
    escaped = escape.has_value();
    benchmark::DoNotOptimize(escape);
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["escaped"] = escaped ? 1 : 0;  // always 1: sigma_k escapes
}

BENCHMARK(BM_FullEscapeSection6)->RangeMultiplier(2)->Range(1, 8);

/// The k-ary closedness sweep (steps = oracle queries — each one a full
/// witness-database probe through the interned CounterexampleOracle) and
/// the full escape search per k.
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("kary_closure");
  for (std::size_t k : {1u, 2u}) {
    Section6Construction c = MakeSection6(k);
    std::vector<Database> witnesses;
    for (std::size_t j = 0; j <= k; ++j) {
      witnesses.push_back(MakeSection6Armstrong(c, j));
    }
    CounterexampleOracle oracle(witnesses);
    std::uint64_t queries = 0;
    WallNs wall = MeasureWallNs(smoke ? 1 : 5, [&] {
      KaryStats stats;
      auto escape = FindKaryEscape(c.universe, c.gamma, oracle, k, &stats);
      CCFP_CHECK(!escape.has_value());  // Theorem 6.1: Gamma is k-closed
      queries = stats.oracle_queries;
    });
    reporter.Add("kary_escape_section6", k, wall, queries);
  }
  {
    const std::size_t k = 4;
    Section6Construction c = MakeSection6(k);
    UnaryFiniteOracle oracle(c.scheme);
    WallNs wall = MeasureWallNs(smoke ? 1 : 5, [&] {
      auto escape = FindFullEscape(c.universe, c.gamma, oracle);
      CCFP_CHECK(escape.has_value());  // sigma_k escapes the full closure
    });
    reporter.Add("full_escape_section6", k, wall, c.universe.size());
  }
  reporter.WriteFile();
  std::fprintf(stderr, "BENCH_kary_closure.json written\n");
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
