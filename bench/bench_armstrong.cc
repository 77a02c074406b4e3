// E13: the Armstrong-database builder (Fagin-Vardi substrate): build +
// verify exactness over growing universes. BENCH_armstrong.json records
// one entry per entry point on the FD workload (an ArmstrongSession grown
// one member per Extend, and one BuildArmstrongDatabase call) plus one
// one-shot build of a mixed FD+IND workload.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "armstrong/builder.h"
#include "axiom/sentence.h"
#include "bench/bench_main.h"
#include "bench/reporter.h"
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

/// A chain of `relations` binary relations linked by unary INDs, one FD
/// each (acyclic: the chase terminates), with every FD of lhs size 1,
/// unary IND and RD in the universe.
struct MixedWorkload {
  SchemePtr scheme;
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  std::vector<Dependency> universe;
};

MixedWorkload MakeMixedWorkload(std::size_t relations) {
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t r = 0; r < relations; ++r) {
    rels.emplace_back(StrCat("R", r), std::vector<std::string>{"A", "B"});
  }
  MixedWorkload w;
  w.scheme = MakeScheme(rels);
  UniverseOptions options;
  options.max_fd_lhs = 1;
  options.max_ind_width = 1;
  options.include_rds = true;
  w.universe = EnumerateUniverse(*w.scheme, options);
  for (std::size_t r = 0; r < relations; ++r) {
    w.fds.push_back(Fd{static_cast<RelId>(r), {0}, {1}});
    if (r + 1 < relations) {
      w.inds.push_back(
          Ind{static_cast<RelId>(r), {1}, static_cast<RelId>(r + 1), {0}});
    }
  }
  return w;
}

void BM_BuildMixedArmstrong(benchmark::State& state) {
  const std::size_t relations = static_cast<std::size_t>(state.range(0));
  auto [scheme, fds, inds, universe] = MakeMixedWorkload(relations);
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

/// Arity-10 FD workload with a two-FD chain and every FD of lhs size <= 2
/// in the universe, timed through both entry points: `session_*` grows an
/// ArmstrongSession one member per Extend (the k-ary-hierarchy /
/// interactive-schema-design shape: after every extension the session
/// re-establishes exactness over the whole universe so far), `oneshot_*`
/// builds the same universe in one BuildArmstrongDatabase call. The FD
/// closure oracle keeps universe classification out of the measured cost.
void EmitFdReport(BenchReporter& reporter, bool smoke) {
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

  WallNs session = MeasureWallNs(smoke ? 1 : 3, [&] {
    ArmstrongSession s(scheme, fds, {}, &oracle);
    for (const Dependency& tau : universe) {
      Status st = s.Extend({tau});
      CCFP_CHECK(st.ok());
    }
  });
  reporter.Add("session_fd_arity10", universe.size(), session,
               universe.size());
  WallNs oneshot = MeasureWallNs(smoke ? 1 : 5, [&] {
    Result<ArmstrongReport> report =
        BuildArmstrongDatabase(scheme, fds, {}, universe, oracle);
    CCFP_CHECK(report.ok());
  });
  reporter.Add("oneshot_fd_arity10", universe.size(), oneshot,
               universe.size());
  std::fprintf(stderr,
               "fd_arity10 (universe %zu): session (one member per round) "
               "%.2f ms, oneshot %.2f ms\n",
               universe.size(), session.median / 1e6, oneshot.median / 1e6);
}

/// One BuildArmstrongDatabase call on the five-relation mixed workload
/// under the chase oracle (steps = universe size decided and verified).
void EmitMixedReport(BenchReporter& reporter) {
  const std::size_t relations = 5;
  MixedWorkload w = MakeMixedWorkload(relations);
  ChaseOracle oracle(w.scheme);
  WallNs wall = MeasureWallNs(5, [&] {
    Result<ArmstrongReport> report =
        BuildArmstrongDatabase(w.scheme, w.fds, w.inds, w.universe, oracle);
    CCFP_CHECK(report.ok());
  });
  reporter.Add("build_mixed_rels5", relations, wall, w.universe.size());
  std::fprintf(stderr, "build_mixed_rels5 (universe %zu): %.2f ms\n",
               w.universe.size(), wall.median / 1e6);
}

/// Smoke mode skips the mixed build, the slow one.
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("armstrong");
  EmitFdReport(reporter, smoke);
  if (!smoke) EmitMixedReport(reporter);
  reporter.WriteFile();
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
