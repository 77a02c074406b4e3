// E15: the concurrent solver service (service/service.h). BENCH_service.json
// records solve throughput: `solve_throughput/t<k>` drives k caller
// threads, each with its own session over one shared core, through a
// fixed mixed-fragment query stream (AddThreaded entries at t=1/2/4/8;
// steps = queries answered). Each query runs on its caller's thread.
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "core/dependency.h"
#include "core/schema.h"
#include "service/service.h"
#include "util/check.h"
#include "util/strings.h"

namespace ccfp {
namespace {

SchemePtr BenchScheme() {
  return MakeScheme({{"R", {"A", "B", "C"}}, {"S", {"D", "E"}}});
}

std::vector<Dependency> BenchSigma() {
  return {Dependency(Fd{0, {0}, {1}}), Dependency(Fd{0, {1}, {2}}),
          Dependency(Ind{0, {0}, 1, {0}})};
}

/// Mixed-fragment targets (non-unary, so they route through the
/// derivation -> chase -> search pipeline rather than the unary decision
/// engines).
std::vector<Dependency> QueryMix() {
  return {
      Dependency(Fd{0, {0}, {1, 2}}),  // implied (A->B->C)
      Dependency(Fd{0, {2}, {0, 1}}),  // refuted
      Dependency(Fd{0, {1}, {0, 2}}),  // refuted (B -> A fails)
      Dependency(Fd{0, {0, 1}, {2}}),  // implied
  };
}

std::uint64_t RunSessions(SolverService& service,
                          const std::vector<SolverService::SessionId>& ids,
                          std::size_t rounds) {
  std::vector<Dependency> queries = QueryMix();
  std::vector<std::thread> callers;
  callers.reserve(ids.size());
  for (SolverService::SessionId id : ids) {
    callers.emplace_back([&service, &queries, id, rounds] {
      for (std::size_t r = 0; r < rounds; ++r) {
        for (const Dependency& q : queries) {
          Result<Verdict> v = service.Solve(id, q);
          CCFP_CHECK(v.ok());
          CCFP_CHECK(v->outcome != ImplicationVerdict::kUnknown);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  return ids.size() * rounds * queries.size();
}

void EmitJsonReport(bool smoke) {
  BenchReporter reporter("service");
  SchemePtr scheme = BenchScheme();

  // Throughput at t caller threads, one session each.
  constexpr std::size_t kRounds = 64;
  for (unsigned t : {1u, 2u, 4u, 8u}) {
    if (smoke && t != 1) continue;
    SolverService service;
    std::vector<SolverService::SessionId> ids;
    for (unsigned s = 0; s < t; ++s) {
      Result<SolverService::SessionId> id =
          service.OpenSolve(scheme, BenchSigma());
      CCFP_CHECK(id.ok());
      ids.push_back(*id);
    }
    std::uint64_t queries = 0;
    std::uint64_t wall_ns = MedianWallNs(
        smoke ? 1 : 3, [&] { queries = RunSessions(service, ids, kRounds); });
    reporter.AddThreaded(StrCat("solve_throughput/t", t), queries, wall_ns,
                         queries, t);
    std::fprintf(stderr,
                 "t=%u: %llu queries in %.1f ms (%.0f q/s)\n", t,
                 static_cast<unsigned long long>(queries), wall_ns / 1e6,
                 queries / (wall_ns / 1e9));
  }

  reporter.WriteFile();
}

void BM_ServiceSolve(benchmark::State& state) {
  SchemePtr scheme = BenchScheme();
  SolverService service;
  std::vector<SolverService::SessionId> ids;
  for (std::int64_t s = 0; s < state.range(0); ++s) {
    Result<SolverService::SessionId> id =
        service.OpenSolve(scheme, BenchSigma());
    CCFP_CHECK(id.ok());
    ids.push_back(*id);
  }
  std::uint64_t queries = 0;
  for (auto _ : state) {
    queries += RunSessions(service, ids, 8);
  }
  state.counters["queries"] = static_cast<double>(queries);
}

BENCHMARK(BM_ServiceSolve)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
