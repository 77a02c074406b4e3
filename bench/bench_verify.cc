// E15: the incremental verification layer. BENCH_verify.json records a
// full-sweep vs incremental entry pair per workload: the sweep engine
// re-checks every dependency against the whole database each round
// (InternedWorkspace::Satisfies over cached partitions), the incremental
// engine consumes the workspace change feed through per-dependency watchers
// (verify/verifier.h) and answers from counters.
#include <algorithm>
#include <cstdint>
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "chase/workspace_chase.h"
#include "core/workspace.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/strings.h"
#include "verify/verifier.h"

namespace ccfp {
namespace {

SchemePtr MakeSingleRelationScheme(std::size_t arity) {
  std::vector<std::string> attrs;
  for (std::size_t i = 0; i < arity; ++i) attrs.push_back(StrCat("A", i));
  return MakeScheme({{"R", std::move(attrs)}});
}

/// All FDs over one relation with |lhs| <= 2 and singleton rhs — the
/// Armstrong-style verification universe.
std::vector<Dependency> FdUniverse(std::size_t arity) {
  std::vector<Dependency> out;
  for (AttrId a = 0; a < arity; ++a) {
    for (AttrId rhs = 0; rhs < arity; ++rhs) {
      if (rhs != a) out.push_back(Dependency(Fd{0, {a}, {rhs}}));
    }
    for (AttrId b = a + 1; b < arity; ++b) {
      for (AttrId rhs = 0; rhs < arity; ++rhs) {
        if (rhs == a || rhs == b) continue;
        out.push_back(Dependency(Fd{0, {a, b}, {rhs}}));
      }
    }
  }
  return out;
}

/// Mostly-functional data: every column is a deterministic function of a
/// key drawn from a small domain, with occasional noise rows. Most
/// universe FDs therefore *hold* — the realistic verification regime
/// (and the regime where a sweep must scan whole relations instead of
/// early-exiting on the first violation).
void AppendRandomTuple(InternedWorkspace& ws, SplitMix64& rng,
                       std::size_t arity, std::size_t domain) {
  IdTuple t(arity, 0);
  std::uint64_t k = rng.Below(domain);
  bool noise = rng.Chance(1, 64);
  for (std::size_t a = 0; a < arity; ++a) {
    std::uint64_t v = noise ? rng.Below(domain * arity)
                            : k * arity + a;  // column-a image of key k
    t[a] = ws.Intern(Value::Int(static_cast<std::int64_t>(v)));
  }
  ws.Append(0, std::move(t));
}

/// Workload A: an append-only verify loop — R rounds of "append a small
/// delta, then re-establish every universe member's verdict". This is the
/// Armstrong/mining access pattern with no merges involved.
void BenchAppendRounds(BenchReporter& reporter, bool smoke) {
  const std::size_t arity = 10;
  const std::size_t base = smoke ? 64 : 3000;
  const std::size_t rounds = smoke ? 4 : 160;
  const std::size_t delta = 2;
  std::vector<Dependency> universe = FdUniverse(arity);
  SchemePtr scheme = MakeSingleRelationScheme(arity);

  WallNs wall[2];
  std::uint64_t checks = universe.size() * rounds;
  for (int engine = 0; engine < 2; ++engine) {
    wall[engine] = MeasureWallNs(smoke ? 1 : 3, [&] {
      SplitMix64 rng(7);
      InternedWorkspace ws(scheme);
      for (std::size_t i = 0; i < base; ++i) {
        AppendRandomTuple(ws, rng, arity, 800);
      }
      IncrementalVerifier verifier(&ws);
      std::vector<WatchId> ids;
      if (engine == 1) {
        for (const Dependency& dep : universe) {
          ids.push_back(verifier.Watch(dep));
        }
      }
      std::size_t satisfied = 0;
      for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t d = 0; d < delta; ++d) {
          AppendRandomTuple(ws, rng, arity, 800);
        }
        if (engine == 1) {
          verifier.CatchUp();
          for (WatchId id : ids) satisfied += verifier.Satisfies(id);
        } else {
          for (const Dependency& dep : universe) {
            satisfied += ws.Satisfies(dep);
          }
        }
      }
      benchmark::DoNotOptimize(satisfied);
    });
  }
  reporter.Add("append_rounds_fullsweep", universe.size(), wall[0], checks);
  reporter.Add("append_rounds_incremental", universe.size(), wall[1],
               checks);
  std::fprintf(stderr,
               "append_rounds (universe %zu, %zu rounds): fullsweep %.2f "
               "ms, incremental %.2f ms, speedup %.2fx\n",
               universe.size(), rounds, wall[0].median / 1e6,
               wall[1].median / 1e6,
               static_cast<double>(wall[0].median) /
                   static_cast<double>(std::max<std::uint64_t>(
                       wall[1].median, 1)));
}

/// Workload B: merge-heavy mid-chase verification — every round appends an
/// FD-violating pair, resumes the chase (whose merges rewrite/kill tuples
/// through the surgical partition repair), and re-verifies the universe at
/// the fixpoint. Before PR 5 each round's merges invalidated every cached
/// partition; now the sweep pays a per-round re-scan and the watchers pay
/// only the delta.
void BenchChaseRounds(BenchReporter& reporter, bool smoke) {
  const std::size_t arity = 8;
  const std::size_t base = smoke ? 64 : 2000;
  const std::size_t rounds = smoke ? 4 : 192;
  std::vector<Dependency> universe = FdUniverse(arity);
  SchemePtr scheme = MakeSingleRelationScheme(arity);
  std::vector<Fd> sigma = {Fd{0, {0}, {1}}, Fd{0, {1}, {2}}};

  WallNs wall[2];
  std::uint64_t checks = universe.size() * rounds;
  for (int engine = 0; engine < 2; ++engine) {
    wall[engine] = MeasureWallNs(smoke ? 1 : 3, [&] {
      InternedWorkspace ws(scheme);
      for (std::size_t i = 0; i < base; ++i) {
        IdTuple t(arity, 0);
        for (std::size_t a = 0; a < arity; ++a) t[a] = ws.InternFreshNull();
        ws.Append(0, std::move(t));
      }
      WorkspaceChase chaser(&ws, sigma, {});
      IncrementalVerifier verifier(&ws);
      std::vector<WatchId> ids;
      if (engine == 1) {
        for (const Dependency& dep : universe) {
          ids.push_back(verifier.Watch(dep));
        }
      }
      std::size_t satisfied = 0;
      for (std::size_t round = 0; round < rounds; ++round) {
        // An A0-agreeing pair: the chase merges its A1 values (and
        // transitively A2), exercising rewrite/kill repair.
        IdTuple t1(arity, 0), t2(arity, 0);
        for (std::size_t a = 0; a < arity; ++a) {
          t1[a] = ws.InternFreshNull();
          t2[a] = a == 0 ? t1[a] : ws.InternFreshNull();
        }
        ws.Append(0, std::move(t1));
        ws.Append(0, std::move(t2));
        Result<WorkspaceChaseStats> run = chaser.Run({});
        CCFP_CHECK(run.ok() && run->outcome == ChaseOutcome::kFixpoint);
        if (engine == 1) {
          verifier.CatchUp();
          for (WatchId id : ids) satisfied += verifier.Satisfies(id);
        } else {
          for (const Dependency& dep : universe) {
            satisfied += ws.Satisfies(dep);
          }
        }
      }
      benchmark::DoNotOptimize(satisfied);
    });
  }
  reporter.Add("chase_rounds_fullsweep", universe.size(), wall[0], checks);
  reporter.Add("chase_rounds_incremental", universe.size(), wall[1], checks);
  std::fprintf(stderr,
               "chase_rounds (universe %zu, %zu rounds): fullsweep %.2f "
               "ms, incremental %.2f ms, speedup %.2fx\n",
               universe.size(), rounds, wall[0].median / 1e6,
               wall[1].median / 1e6,
               static_cast<double>(wall[0].median) /
                   static_cast<double>(std::max<std::uint64_t>(
                       wall[1].median, 1)));
}

/// Workload C: the append-rounds workload drained via CatchUp() on a wide
/// base — the verifier catch-up layer on its own.
void BenchCatchUp(BenchReporter& reporter, bool smoke) {
  const std::size_t arity = 10;
  const std::size_t base = smoke ? 64 : 3000;
  const std::size_t rounds = smoke ? 4 : 160;
  const std::size_t delta = 2;
  std::vector<Dependency> universe = FdUniverse(arity);
  SchemePtr scheme = MakeSingleRelationScheme(arity);
  std::uint64_t checks = universe.size() * rounds;

  auto run = [&] {
    SplitMix64 rng(7);
    InternedWorkspace ws(scheme);
    for (std::size_t i = 0; i < base; ++i) {
      AppendRandomTuple(ws, rng, arity, 800);
    }
    IncrementalVerifier verifier(&ws);
    std::vector<WatchId> ids;
    for (const Dependency& dep : universe) {
      ids.push_back(verifier.Watch(dep));
    }
    std::size_t satisfied = 0;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t d = 0; d < delta; ++d) {
        AppendRandomTuple(ws, rng, arity, 800);
      }
      verifier.CatchUp();
      for (WatchId id : ids) satisfied += verifier.Satisfies(id);
    }
    benchmark::DoNotOptimize(satisfied);
  };

  WallNs seq_wall = MeasureWallNs(smoke ? 1 : 3, run);
  reporter.Add("catchup_sequential", universe.size(), seq_wall, checks);
  std::fprintf(stderr, "catchup (universe %zu): sequential %.2f ms\n",
               universe.size(), seq_wall.median / 1e6);
}

void EmitJsonReport(bool smoke) {
  BenchReporter reporter("verify");
  BenchAppendRounds(reporter, smoke);
  BenchChaseRounds(reporter, smoke);
  BenchCatchUp(reporter, smoke);
  reporter.WriteFile();
}

void BM_VerifyAppendRound(benchmark::State& state) {
  const std::size_t arity = 10;
  std::vector<Dependency> universe = FdUniverse(arity);
  SchemePtr scheme = MakeSingleRelationScheme(arity);
  SplitMix64 rng(11);
  InternedWorkspace ws(scheme);
  for (int i = 0; i < 160; ++i) AppendRandomTuple(ws, rng, arity, 800);
  IncrementalVerifier verifier(&ws);
  std::vector<WatchId> ids;
  for (const Dependency& dep : universe) ids.push_back(verifier.Watch(dep));
  std::size_t satisfied = 0;
  for (auto _ : state) {
    AppendRandomTuple(ws, rng, arity, 800);
    verifier.CatchUp();
    for (WatchId id : ids) satisfied += verifier.Satisfies(id);
  }
  benchmark::DoNotOptimize(satisfied);
  state.counters["universe"] = static_cast<double>(universe.size());
}

BENCHMARK(BM_VerifyAppendRound);

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
