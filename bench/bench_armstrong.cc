// E13: the Armstrong-database builder (Fagin-Vardi substrate): build +
// verify exactness over growing universes. BENCH_armstrong.json records a
// legacy-vs-workspace entry pair per workload: the legacy engine re-interns
// the seed database every repair round, the workspace engine appends into
// one persistent InternedWorkspace and resumes its chase.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "armstrong/builder.h"
#include "axiom/sentence.h"
#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "reference/armstrong.h"
#include "util/check.h"
#include "util/strings.h"

namespace ccfp {
namespace {

void BM_BuildFdArmstrong(benchmark::State& state) {
  const std::size_t arity = static_cast<std::size_t>(state.range(0));
  std::vector<std::string> attrs;
  for (std::size_t i = 0; i < arity; ++i) attrs.push_back(StrCat("A", i));
  SchemePtr scheme = MakeScheme({{"R", attrs}});
  UniverseOptions options;
  options.max_fd_lhs = 1;
  options.include_inds = false;
  std::vector<Dependency> universe = EnumerateUniverse(*scheme, options);
  std::vector<Fd> fds = {Fd{0, {0}, {1}}};
  ChaseOracle oracle(scheme);
  std::size_t tuples = 0;
  int repairs = 0;
  for (auto _ : state) {
    Result<ArmstrongReport> report =
        BuildArmstrongDatabase(scheme, fds, {}, universe, oracle);
    if (report.ok()) {
      tuples = report->db.TotalTuples();
      repairs = report->repair_rounds;
    }
    benchmark::DoNotOptimize(report);
  }
  state.counters["arity"] = static_cast<double>(arity);
  state.counters["universe"] = static_cast<double>(universe.size());
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["repairs"] = static_cast<double>(repairs);
}

BENCHMARK(BM_BuildFdArmstrong)->DenseRange(2, 6);

void BM_BuildMixedArmstrong(benchmark::State& state) {
  const std::size_t relations = static_cast<std::size_t>(state.range(0));
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t r = 0; r < relations; ++r) {
    rels.emplace_back(StrCat("R", r), std::vector<std::string>{"A", "B"});
  }
  SchemePtr scheme = MakeScheme(rels);
  UniverseOptions options;
  options.max_fd_lhs = 1;
  options.max_ind_width = 1;
  options.include_rds = true;
  std::vector<Dependency> universe = EnumerateUniverse(*scheme, options);
  // A chain of INDs plus one FD per relation (acyclic: chase terminates).
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  for (std::size_t r = 0; r < relations; ++r) {
    fds.push_back(Fd{static_cast<RelId>(r), {0}, {1}});
    if (r + 1 < relations) {
      inds.push_back(
          Ind{static_cast<RelId>(r), {1}, static_cast<RelId>(r + 1), {0}});
    }
  }
  ChaseOracle oracle(scheme);
  std::size_t tuples = 0;
  for (auto _ : state) {
    Result<ArmstrongReport> report =
        BuildArmstrongDatabase(scheme, fds, inds, universe, oracle);
    if (report.ok()) tuples = report->db.TotalTuples();
    benchmark::DoNotOptimize(report);
  }
  state.counters["relations"] = static_cast<double>(relations);
  state.counters["universe"] = static_cast<double>(universe.size());
  state.counters["tuples"] = static_cast<double>(tuples);
}

BENCHMARK(BM_BuildMixedArmstrong)->DenseRange(2, 5);

/// The multi-round verify-dominated workload: an ArmstrongSession whose
/// sentence universe grows one member per Extend — the k-ary-hierarchy /
/// interactive-schema-design shape, where after every extension the
/// session re-establishes exactness over the entire universe so far.
/// Emits a fullsweep/incremental entry pair; the per-round re-sweeps are
/// exactly what ArmstrongVerifyEngine::kIncremental retires (watchers
/// answer old members from counters, only the delta is re-processed).
/// A second pair builds the same universe in one BuildArmstrongDatabase
/// call under each engine: the measurement behind kAuto resolving to
/// kFullSweep for the one-shot builder (one verification, so compiling
/// watchers buys nothing).
void EmitVerifyEngineReport(BenchReporter& reporter, bool smoke) {
  const std::size_t arity = 10;
  std::vector<std::string> attrs;
  for (std::size_t i = 0; i < arity; ++i) attrs.push_back(StrCat("A", i));
  SchemePtr scheme = MakeScheme({{"R", attrs}});
  UniverseOptions options;
  options.max_fd_lhs = 2;
  options.include_inds = false;
  std::vector<Dependency> universe = EnumerateUniverse(*scheme, options);
  std::vector<Fd> fds = {Fd{0, {0}, {1}}, Fd{0, {1}, {2}}};
  FdOracle oracle(scheme);

  std::uint64_t wall[2] = {0, 0};
  for (int engine = 0; engine < 2; ++engine) {
    ArmstrongBuildOptions build;
    build.verify = engine == 1 ? ArmstrongVerifyEngine::kIncremental
                               : ArmstrongVerifyEngine::kFullSweep;
    wall[engine] = MedianWallNs(smoke ? 1 : 3, [&] {
      ArmstrongSession session(scheme, fds, {}, &oracle, build);
      for (const Dependency& tau : universe) {
        Status st = session.Extend({tau});
        CCFP_CHECK(st.ok());
      }
    });
  }
  reporter.Add("session_fd_arity10_fullsweep", universe.size(), wall[0],
               universe.size());
  reporter.Add("session_fd_arity10_incremental", universe.size(), wall[1],
               universe.size());
  std::fprintf(stderr,
               "session_fd_arity10 (universe %zu, one member per round): "
               "fullsweep %.2f ms, incremental %.2f ms, speedup %.2fx\n",
               universe.size(), wall[0] / 1e6, wall[1] / 1e6,
               static_cast<double>(wall[0]) /
                   static_cast<double>(wall[1] == 0 ? 1 : wall[1]));

  std::uint64_t oneshot[2] = {0, 0};
  for (int engine = 0; engine < 2; ++engine) {
    ArmstrongBuildOptions build;
    build.verify = engine == 1 ? ArmstrongVerifyEngine::kIncremental
                               : ArmstrongVerifyEngine::kFullSweep;
    oneshot[engine] = MedianWallNs(smoke ? 1 : 5, [&] {
      Result<ArmstrongReport> report =
          BuildArmstrongDatabase(scheme, fds, {}, universe, oracle, build);
      CCFP_CHECK(report.ok());
    });
  }
  reporter.Add("oneshot_fd_arity10_fullsweep", universe.size(), oneshot[0],
               universe.size());
  reporter.Add("oneshot_fd_arity10_incremental", universe.size(),
               oneshot[1], universe.size());
  std::fprintf(stderr,
               "oneshot_fd_arity10 (universe %zu, one build): "
               "fullsweep %.2f ms, incremental %.2f ms, speedup %.2fx\n",
               universe.size(), oneshot[0] / 1e6, oneshot[1] / 1e6,
               static_cast<double>(oneshot[0]) /
                   static_cast<double>(oneshot[1] == 0 ? 1 : oneshot[1]));
}

/// Times both Armstrong engines on the two recorded workloads and emits
/// one legacy/workspace entry pair each (steps = universe size decided and
/// verified per build).
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("armstrong");
  EmitVerifyEngineReport(reporter, smoke);
  struct Workload {
    const char* name;
    std::size_t n;
    SchemePtr scheme;
    std::vector<Fd> fds;
    std::vector<Ind> inds;
    std::vector<Dependency> universe;
  };
  std::vector<Workload> workloads;

  {
    Workload w;
    w.name = "build_fd_arity10";
    w.n = 10;
    std::vector<std::string> attrs;
    for (std::size_t i = 0; i < w.n; ++i) attrs.push_back(StrCat("A", i));
    w.scheme = MakeScheme({{"R", attrs}});
    UniverseOptions options;
    options.max_fd_lhs = 2;
    options.include_inds = false;
    w.universe = EnumerateUniverse(*w.scheme, options);
    w.fds = {Fd{0, {0}, {1}}, Fd{0, {1}, {2}}};
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "build_mixed_rels5";
    w.n = 5;
    std::vector<std::pair<std::string, std::vector<std::string>>> rels;
    for (std::size_t r = 0; r < w.n; ++r) {
      rels.emplace_back(StrCat("R", r), std::vector<std::string>{"A", "B"});
    }
    w.scheme = MakeScheme(rels);
    UniverseOptions options;
    options.max_fd_lhs = 1;
    options.max_ind_width = 1;
    options.include_rds = true;
    w.universe = EnumerateUniverse(*w.scheme, options);
    for (std::size_t r = 0; r < w.n; ++r) {
      w.fds.push_back(Fd{static_cast<RelId>(r), {0}, {1}});
      if (r + 1 < w.n) {
        w.inds.push_back(
            Ind{static_cast<RelId>(r), {1}, static_cast<RelId>(r + 1), {0}});
      }
    }
    workloads.push_back(std::move(w));
  }

  if (smoke) workloads.erase(workloads.begin() + 1, workloads.end());
  for (const Workload& w : workloads) {
    // The FD-only workload uses the closure oracle so the measured cost is
    // the build -> chase -> verify loop itself, not universe
    // classification; the mixed workload needs the chase oracle.
    FdOracle fd_oracle(w.scheme);
    ChaseOracle chase_oracle(w.scheme);
    const ImplicationOracle& oracle =
        w.inds.empty() ? static_cast<const ImplicationOracle&>(fd_oracle)
                       : chase_oracle;
    std::uint64_t wall[2] = {0, 0};
    for (int engine = 0; engine < 2; ++engine) {
      wall[engine] = MedianWallNs(smoke ? 1 : 5, [&] {
        Result<ArmstrongReport> report =
            engine == 1 ? BuildArmstrongDatabase(w.scheme, w.fds, w.inds,
                                                 w.universe, oracle)
                        : reference::BuildArmstrongDatabaseLegacy(
                              w.scheme, w.fds, w.inds, w.universe, oracle);
        CCFP_CHECK(report.ok());
      });
    }
    reporter.Add(StrCat(w.name, "_legacy"), w.n, wall[0], w.universe.size());
    reporter.Add(StrCat(w.name, "_workspace"), w.n, wall[1],
                 w.universe.size());
    std::fprintf(stderr,
                 "%s (universe %zu): legacy %.2f ms, workspace %.2f ms, "
                 "speedup %.2fx\n",
                 w.name, w.universe.size(), wall[0] / 1e6, wall[1] / 1e6,
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
