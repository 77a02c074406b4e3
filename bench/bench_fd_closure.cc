// E10: the FD substrate — attribute-set closure is (near-)linear in the
// total size of the FD set, the paper's Section 3 contrast with the
// PSPACE-complete IND problem ("The FD decision procedure can be
// implemented ... to run in linear time"). Closure timings are emitted to
// BENCH_fd_closure.json (entries: n = attribute count, steps = FD count).
#include <string_view>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "core/schema.h"
#include "fd/closure.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ccfp {
namespace {

SchemePtr WideScheme(std::size_t attrs) {
  std::vector<std::string> names;
  names.reserve(attrs);
  for (std::size_t i = 0; i < attrs; ++i) names.push_back(StrCat("A", i));
  return MakeScheme({{"R", names}});
}

std::vector<Fd> RandomFds(std::size_t attrs, std::size_t count,
                          std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Fd> fds;
  fds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Fd fd;
    fd.rel = 0;
    std::size_t lhs_size = 1 + rng.Below(3);
    std::vector<bool> used(attrs, false);
    for (std::size_t j = 0; j < lhs_size; ++j) {
      AttrId a = static_cast<AttrId>(rng.Below(attrs));
      if (!used[a]) {
        used[a] = true;
        fd.lhs.push_back(a);
      }
    }
    AttrId b = static_cast<AttrId>(rng.Below(attrs));
    if (!used[b]) fd.rhs.push_back(b);
    if (fd.rhs.empty()) fd.rhs.push_back(used[0] ? 0 : 1);
    fds.push_back(std::move(fd));
  }
  return fds;
}

// Sweep: number of attributes (FD count scales with it).
void BM_FdClosure(benchmark::State& state) {
  const std::size_t attrs = static_cast<std::size_t>(state.range(0));
  const std::size_t fd_count = attrs * 2;
  SchemePtr scheme = WideScheme(attrs);
  std::vector<Fd> fds = RandomFds(attrs, fd_count, 42);
  FdClosure closure(*scheme, 0, fds);
  std::vector<AttrId> start = {0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(closure.Closure(start));
  }
  state.counters["attrs"] = static_cast<double>(attrs);
  state.counters["fds"] = static_cast<double>(fd_count);
  state.SetComplexityN(static_cast<std::int64_t>(attrs));
}

BENCHMARK(BM_FdClosure)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

// Engine construction cost (index building).
void BM_FdClosureConstruction(benchmark::State& state) {
  const std::size_t attrs = static_cast<std::size_t>(state.range(0));
  SchemePtr scheme = WideScheme(attrs);
  std::vector<Fd> fds = RandomFds(attrs, attrs * 2, 42);
  for (auto _ : state) {
    FdClosure closure(*scheme, 0, fds);
    benchmark::DoNotOptimize(&closure);
  }
  state.SetComplexityN(static_cast<std::int64_t>(attrs));
}

BENCHMARK(BM_FdClosureConstruction)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Complexity();

/// Writes BENCH_fd_closure.json: per attribute count, the median closure
/// query time (index prebuilt) and the construction+query time.
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("fd_closure");
  for (std::size_t attrs : {64, 256, 1024, 4096}) {
    if (smoke && attrs != 64) continue;
    const std::size_t fd_count = attrs * 2;
    SchemePtr scheme = WideScheme(attrs);
    std::vector<Fd> fds = RandomFds(attrs, fd_count, 42);
    FdClosure closure(*scheme, 0, fds);
    std::vector<AttrId> start = {0};
    WallNs query_ns = MeasureWallNs(smoke ? 1 : 9, [&] {
      benchmark::DoNotOptimize(closure.Closure(start));
    });
    WallNs build_ns = MeasureWallNs(smoke ? 1 : 5, [&] {
      FdClosure fresh(*scheme, 0, fds);
      benchmark::DoNotOptimize(fresh.Closure(start));
    });
    reporter.Add("closure_query", attrs, query_ns, fd_count);
    reporter.Add("closure_build_and_query", attrs, build_ns, fd_count);
  }
  reporter.WriteFile();
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
