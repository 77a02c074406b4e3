// E5: finite vs unrestricted implication (Theorem 4.4 / Section 6 cycles).
// The unary counting engine decides |=fin for cycle families of growing
// size k in polynomial time, while the same conclusions are unrestrictedly
// non-implied.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "constructions/section6.h"
#include "constructions/theorem44.h"
#include "core/satisfies.h"
#include "interact/unary_finite.h"
#include "solve/solver.h"
#include "util/check.h"

namespace ccfp {
namespace {

void BM_UnaryFiniteEngineOnCycles(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Section6Construction c = MakeSection6(k);
  bool implied = false;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    UnaryFiniteImplication engine(c.scheme, c.fds, c.inds);
    implied = engine.Implies(c.sigma_target);
    rounds = engine.rounds();
    benchmark::DoNotOptimize(engine);
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["implied_fin"] = implied ? 1 : 0;  // always 1
  state.counters["rounds"] = static_cast<double>(rounds);
}

BENCHMARK(BM_UnaryFiniteEngineOnCycles)->RangeMultiplier(2)->Range(2, 128);

/// The Theorem 4.4 split as two Solves, one per semantics: true iff the
/// gadget's IND conclusion is finitely implied but not implied.
bool Theorem44Separated(const Theorem44Gadget& g) {
  std::vector<Dependency> sigma = {Dependency(g.fd), Dependency(g.ind)};
  Dependency target(g.ind_conclusion);
  SolveOptions finite;
  finite.semantics = ImplicationSemantics::kFinite;
  Verdict fin = SolveImplication(g.scheme, sigma, target, Budget(), finite)
                    .value();
  Verdict unr = SolveImplication(g.scheme, sigma, target).value();
  return fin.outcome == ImplicationVerdict::kImplied &&
         unr.outcome == ImplicationVerdict::kNotImplied;
}

void BM_SolveBothSemanticsTheorem44(benchmark::State& state) {
  Theorem44Gadget g = MakeTheorem44Gadget();
  bool separated = false;
  for (auto _ : state) {
    separated = Theorem44Separated(g);
    benchmark::DoNotOptimize(separated);
  }
  state.counters["separated"] = separated ? 1 : 0;  // 1: |=fin holds, |= fails
}

BENCHMARK(BM_SolveBothSemanticsTheorem44);

void BM_PrefixViolationScan(benchmark::State& state) {
  // Model-checking cost of confirming that the length-N prefix of the
  // Figure 4.1 infinite witness violates Sigma.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Theorem44Gadget g = MakeTheorem44Gadget();
  Database prefix = Figure41Prefix(g, n);
  bool fd_holds = false, ind_holds = true;
  for (auto _ : state) {
    fd_holds = Satisfies(prefix, g.fd);
    ind_holds = Satisfies(prefix, g.ind);
    benchmark::DoNotOptimize(fd_holds);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["fd_holds"] = fd_holds ? 1 : 0;    // always 1
  state.counters["ind_holds"] = ind_holds ? 1 : 0;  // always 0 (boundary)
}

BENCHMARK(BM_PrefixViolationScan)->RangeMultiplier(8)->Range(8, 32768);

/// The counting closure on Section 6 cycles (steps = fixpoint rounds) and
/// the Theorem 4.4 finite/unrestricted separation (steps = 1 separation).
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("finite_implication");
  for (std::size_t k : {16u, 64u}) {
    if (smoke && k != 16) continue;
    Section6Construction c = MakeSection6(k);
    std::uint64_t rounds = 0;
    WallNs wall = MeasureWallNs(smoke ? 1 : 5, [&] {
      UnaryFiniteImplication engine(c.scheme, c.fds, c.inds);
      CCFP_CHECK(engine.Implies(c.sigma_target));
      rounds = engine.rounds();
    });
    reporter.Add("unary_finite_cycle", k, wall, rounds);
  }
  {
    Theorem44Gadget g = MakeTheorem44Gadget();
    WallNs wall = MeasureWallNs(
        smoke ? 1 : 5, [&] { CCFP_CHECK(Theorem44Separated(g)); });
    reporter.Add("theorem44_separation", 1, wall, 1);
  }
  reporter.WriteFile();
  std::fprintf(stderr, "BENCH_finite_implication.json written\n");
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
