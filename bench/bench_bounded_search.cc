// E12: bounded counterexample search — the id-space enumeration engine
// (integer-coded candidates, incremental per-dependency counters, sound
// pruning) on exhaustive no-counterexample workloads where the whole
// bounded space must be scanned. Emitted to BENCH_bounded_search.json.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "core/dependency.h"
#include "search/bounded.h"
#include "util/check.h"

namespace ccfp {
namespace {

struct Workload {
  const char* name;
  SchemePtr scheme;
  std::vector<Dependency> premises;
  Dependency conclusion;
  BoundedSearchOptions options;
  /// Whether a counterexample exists within the bound (sanity-checked).
  bool expect_counterexample = false;
};

/// {A -> B, B -> C} |= A -> C over one ternary relation: implied, so the
/// search scans the full bounded space (3304 subsets at domain 3, <= 3
/// tuples). Stresses per-candidate FD checking and the pruning of every
/// subtree that already violates a premise FD.
Workload TransitiveFdWorkload(std::size_t domain,
                              std::size_t max_tuples) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  Workload w{
      "transitive_fd",
      scheme,
      {Dependency(MakeFd(*scheme, "R", {"A"}, {"B"})),
       Dependency(MakeFd(*scheme, "R", {"B"}, {"C"}))},
      Dependency(MakeFd(*scheme, "R", {"A"}, {"C"})),
      {},
  };
  w.options.domain_size = domain;
  w.options.max_tuples_per_relation = max_tuples;
  return w;
}

/// Theorem 4.4 finite implication: {R: A -> B, R[A] <= R[B]} |=fin
/// R[B] <= R[A] — no finite counterexample at any bound, full scan with a
/// self-IND in play. Stresses the incremental IND counters.
Workload Theorem44Workload(std::size_t domain, std::size_t max_tuples) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}});
  Workload w{
      "theorem44_finite",
      scheme,
      {Dependency(MakeFd(*scheme, "R", {"A"}, {"B"})),
       Dependency(MakeInd(*scheme, "R", {"A"}, "R", {"B"}))},
      Dependency(MakeInd(*scheme, "R", {"B"}, "R", {"A"})),
      {},
  };
  w.options.domain_size = domain;
  w.options.max_tuples_per_relation = max_tuples;
  return w;
}

/// Two-relation product space where the conclusion involves only the first
/// relation: the search prunes the entire second-relation subtree at the
/// first boundary instead of enumerating the full product.
Workload ProductPruningWorkload(std::size_t domain,
                                std::size_t max_tuples) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  Workload w{
      "product_pruning",
      scheme,
      {Dependency(MakeFd(*scheme, "R", {"A"}, {"B"})),
       Dependency(MakeFd(*scheme, "S", {"C"}, {"D"}))},
      Dependency(MakeFd(*scheme, "R", {"A"}, {"B"})),
      {},
  };
  w.options.domain_size = domain;
  w.options.max_tuples_per_relation = max_tuples;
  return w;
}

/// Runs one full search and returns its candidate boundaries tested.
std::uint64_t RunOnce(const Workload& w) {
  Result<BoundedSearchResult> result =
      FindCounterexample(w.scheme, w.premises, w.conclusion, w.options);
  CCFP_CHECK(result.ok());
  CCFP_CHECK(result->exhausted);
  CCFP_CHECK(result->counterexample.has_value() == w.expect_counterexample);
  return result->candidates_tested;
}

void BM_BoundedSearch(benchmark::State& state) {
  const std::size_t workload = static_cast<std::size_t>(state.range(0));
  Workload w = workload == 0   ? TransitiveFdWorkload(3, 3)
               : workload == 1 ? Theorem44Workload(3, 3)
                               : ProductPruningWorkload(3, 3);
  std::uint64_t candidates = 0;
  for (auto _ : state) {
    candidates = RunOnce(w);
  }
  state.counters["candidates"] = static_cast<double>(candidates);
}

BENCHMARK(BM_BoundedSearch)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

/// Times each workload and writes BENCH_bounded_search.json (entries:
/// n = domain size, steps = candidate boundaries tested).
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("bounded_search");
  std::vector<Workload> workloads = {
      TransitiveFdWorkload(3, 3),
      TransitiveFdWorkload(4, 2),
      Theorem44Workload(3, 3),
      ProductPruningWorkload(3, 3),
  };
  if (smoke) workloads.erase(workloads.begin() + 1, workloads.end());
  for (const Workload& w : workloads) {
    std::uint64_t candidates = 0;
    WallNs wall =
        MeasureWallNs(smoke ? 1 : 5, [&] { candidates = RunOnce(w); });
    reporter.Add(w.name, w.options.domain_size, wall, candidates);
    std::fprintf(stderr, "%s d=%zu: %.2f ms (%llu boundaries)\n", w.name,
                 w.options.domain_size, wall.median / 1e6,
                 static_cast<unsigned long long>(candidates));
  }
  reporter.WriteFile();
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
