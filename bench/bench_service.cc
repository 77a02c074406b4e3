// E15: the concurrent solver service (service/service.h). BENCH_service.json
// records solve throughput: `solve_throughput/t<k>` drives k caller
// threads, each with its own session over one shared core, through a
// fixed mixed-fragment query stream (AddThreaded entries at t=1/2/4/8;
// steps = queries answered). Each query runs on its caller's thread.
//
// It also records a mining session's write path layer by layer, on the
// session_churn shape (bench/workloads.h), one op per rep:
//   core_build_churn     SolverCore::Build over the warm data (identity,
//                        interning, premining); steps = partitions premined
//   fork_churn           one ForkWorkspace of that core and its teardown;
//                        steps = partitions
//   parse_delta          ParseDatabase of one 13-line delta; steps = tuples
//   append_delta         AppendDatabase of that delta to a fork already 8
//                        deltas into its session; steps = tuples
//   remine_after_append  MineFds(R) right after that append; steps = FDs
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "bench/workloads.h"
#include "core/dependency.h"
#include "core/parser.h"
#include "core/schema.h"
#include "mine/discovery.h"
#include "service/service.h"
#include "service/shared_core.h"
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

void EmitChurnEntries(BenchReporter& reporter, bool smoke) {
  const int reps = smoke ? 1 : 31;
  SchemePtr scheme = ChurnScheme();
  Database warm = ChurnWarmData(scheme, 1);
  std::vector<std::string> texts = ChurnDeltaTexts(9);
  std::vector<Database> deltas;
  for (const std::string& text : texts) {
    Result<Database> delta = ParseDatabase(scheme, text);
    CCFP_CHECK(delta.ok());
    deltas.push_back(std::move(*delta));
  }
  const Database& next = deltas.back();

  std::shared_ptr<const SolverCore> core;
  WallNs build = MeasureWallNs(smoke ? 1 : 9, [&] {
    Result<std::shared_ptr<const SolverCore>> built =
        SolverCore::Build(scheme, {}, &warm);
    CCFP_CHECK(built.ok());
    core = *built;
  });
  std::uint64_t premined = core->base_stats().partitions_built;
  reporter.Add("core_build_churn", warm.TotalTuples(), build, premined);

  WallNs fork = MeasureWallNs(reps, [&] {
    InternedWorkspace ws = core->ForkWorkspace();
    CCFP_CHECK(ws.TotalAliveTuples() == warm.TotalTuples());
  });
  reporter.Add("fork_churn", warm.TotalTuples(), fork, premined);

  WallNs parse = MeasureWallNs(reps, [&] {
    Result<Database> parsed = ParseDatabase(scheme, texts.back());
    CCFP_CHECK(parsed.ok());
  });
  reporter.Add("parse_delta", next.TotalTuples(), parse, next.TotalTuples());

  // One mid-session fork per rep, 8 deltas appended and mined as a
  // session would, so each timed op meets caches as cold as a session op
  // among other sessions does.
  std::vector<InternedWorkspace> forks;
  for (int r = 0; r < reps; ++r) {
    forks.push_back(core->ForkWorkspace());
    for (std::size_t d = 0; d + 1 < deltas.size(); ++d) {
      forks.back().AppendDatabase(deltas[d]);
      (void)MineFds(forks.back(), 0);
    }
  }
  std::size_t rep = 0;
  WallNs append =
      MeasureWallNs(reps, [&] { forks[rep++].AppendDatabase(next); });
  reporter.Add("append_delta", next.TotalTuples(), append,
               next.TotalTuples());
  rep = 0;
  std::size_t fds = 0;
  WallNs remine =
      MeasureWallNs(reps, [&] { fds = MineFds(forks[rep++], 0).size(); });
  reporter.Add("remine_after_append", next.TotalTuples(), remine, fds);
  std::fprintf(stderr,
               "churn: build %.3f ms (%llu partitions), fork %.1f us, parse "
               "%.1f us, append %.1f us, re-mine %.1f us\n",
               build.median / 1e6, static_cast<unsigned long long>(premined),
               fork.median / 1e3, parse.median / 1e3, append.median / 1e3,
               remine.median / 1e3);
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
    WallNs wall_ns = MeasureWallNs(
        smoke ? 1 : 3, [&] { queries = RunSessions(service, ids, kRounds); });
    reporter.AddThreaded(StrCat("solve_throughput/t", t), queries, wall_ns,
                         queries, t);
    std::fprintf(stderr,
                 "t=%u: %llu queries in %.1f ms (%.0f q/s)\n", t,
                 static_cast<unsigned long long>(queries), wall_ns.median / 1e6,
                 queries / (wall_ns.median / 1e9));
  }

  EmitChurnEntries(reporter, smoke);
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
