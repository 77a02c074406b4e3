// E12: bounded counterexample search — the id-space enumeration engine
// (integer-coded candidates, incremental per-dependency counters, sound
// pruning) against the test-only per-candidate materializing reference
// (reference::FindCounterexampleMaterialized, the "legacy" entries), on
// exhaustive no-counterexample workloads where the whole bounded space
// must be scanned. Emitted to BENCH_bounded_search.json.
#include <cstdio>
#include <string_view>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "core/dependency.h"
#include "reference/bounded.h"
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

/// {A -> B, B -> C} |= A -> C over one ternary relation: implied, so both
/// engines scan the full bounded space (3304 subsets at domain 3, <= 3
/// tuples). Stresses per-candidate FD checking; the id-space engine also
/// prunes every subtree that already violates a premise FD.
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
/// relation: the id-space engine prunes the entire second-relation subtree
/// at the first boundary, the legacy engine enumerates the full product.
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

std::uint64_t RunOnce(const Workload& w, bool id_space,
                      std::uint64_t* candidates) {
  Result<BoundedSearchResult> result =
      id_space ? FindCounterexample(w.scheme, w.premises, w.conclusion,
                                    w.options)
               : reference::FindCounterexampleMaterialized(
                     w.scheme, w.premises, w.conclusion, w.options);
  CCFP_CHECK(result.ok());
  CCFP_CHECK(result->exhausted);
  CCFP_CHECK(result->counterexample.has_value() == w.expect_counterexample);
  *candidates = result->candidates_tested;
  return 0;
}

void BM_BoundedSearch(benchmark::State& state) {
  const std::size_t workload = static_cast<std::size_t>(state.range(0));
  const bool id_space = state.range(1) != 0;
  Workload w = workload == 0   ? TransitiveFdWorkload(3, 3)
               : workload == 1 ? Theorem44Workload(3, 3)
                               : ProductPruningWorkload(3, 3);
  std::uint64_t candidates = 0;
  for (auto _ : state) {
    RunOnce(w, id_space, &candidates);
  }
  state.counters["idspace"] = id_space ? 1 : 0;
  state.counters["candidates"] = static_cast<double>(candidates);
}

BENCHMARK(BM_BoundedSearch)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// Times each workload under both engines and writes
/// BENCH_bounded_search.json (entries: n = domain size, steps = candidate
/// evaluations of that engine).
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
    std::uint64_t wall[2] = {0, 0};
    std::uint64_t candidates[2] = {0, 0};
    for (int engine = 0; engine < 2; ++engine) {
      wall[engine] = MedianWallNs(smoke ? 1 : 5, [&] {
        RunOnce(w, engine == 1, &candidates[engine]);
      });
    }
    std::string legacy_name = std::string(w.name) + "_legacy";
    std::string idspace_name = std::string(w.name) + "_idspace";
    reporter.Add(legacy_name, w.options.domain_size, wall[0],
                 candidates[0]);
    reporter.Add(idspace_name, w.options.domain_size, wall[1],
                 candidates[1]);
    std::fprintf(stderr,
                 "%s d=%zu: legacy %.2f ms (%llu candidates), id-space "
                 "%.2f ms (%llu boundaries), speedup %.1fx\n",
                 w.name, w.options.domain_size, wall[0] / 1e6,
                 static_cast<unsigned long long>(candidates[0]),
                 wall[1] / 1e6,
                 static_cast<unsigned long long>(candidates[1]),
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
