// Benchmarks for the ImplicationSolver façade: per-fragment routing
// latency (the façade must cost no more than calling the fragment's
// legacy entry point directly) and the staged mixed pipeline. Emits
// BENCH_solver.json with legacy-vs-facade entry pairs per fragment.
#include <cstdio>
#include <vector>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "chase/chase.h"
#include "fd/closure.h"
#include "ind/implication.h"
#include "interact/unary_finite.h"
#include "solve/solver.h"
#include "util/strings.h"

namespace ccfp {
namespace {

/// A k-attribute FD chain on one relation: A0 -> A1 -> ... -> A(k-1).
struct FdChain {
  SchemePtr scheme;
  std::vector<Fd> fds;
  std::vector<Dependency> sigma;
  Fd target;  // A0 -> A(k-1): implied through the whole chain
};

FdChain MakeFdChain(std::size_t k) {
  FdChain c;
  std::vector<std::string> attrs;
  for (std::size_t a = 0; a < k; ++a) attrs.push_back(StrCat("A", a));
  c.scheme = MakeScheme({{"R", attrs}});
  for (AttrId a = 0; a + 1 < k; ++a) {
    c.fds.push_back(Fd{0, {a}, {static_cast<AttrId>(a + 1)}});
    c.sigma.push_back(Dependency(c.fds.back()));
  }
  c.target = Fd{0, {0}, {static_cast<AttrId>(k - 1)}};
  return c;
}

/// A k-relation IND chain: R0[A,B] <= R1[A,B] <= ... <= R(k-1)[A,B].
struct IndChain {
  SchemePtr scheme;
  std::vector<Ind> inds;
  std::vector<Dependency> sigma;
  Ind target;  // R0[A,B] <= R(k-1)[A,B]
};

IndChain MakeIndChain(std::size_t k) {
  IndChain c;
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t r = 0; r < k; ++r) {
    rels.emplace_back(StrCat("R", r), std::vector<std::string>{"A", "B"});
  }
  c.scheme = MakeScheme(rels);
  for (RelId r = 0; r + 1 < k; ++r) {
    c.inds.push_back(Ind{r, {0, 1}, static_cast<RelId>(r + 1), {0, 1}});
    c.sigma.push_back(Dependency(c.inds.back()));
  }
  c.target = Ind{0, {0, 1}, static_cast<RelId>(k - 1), {0, 1}};
  return c;
}

/// The Proposition 4.1 pullback shape: mixed sigma, derivation-decidable.
struct MixedInstance {
  SchemePtr scheme;
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  std::vector<Dependency> sigma;
  Fd derivable;    // decided by the sound-rule stage
  Fd chase_only;   // not derivable; decided by the chase stage
};

MixedInstance MakeMixed() {
  MixedInstance m;
  m.scheme = MakeScheme({{"R", {"X", "Y"}}, {"S", {"T", "U"}}});
  m.inds.push_back(Ind{0, {0, 1}, 1, {0, 1}});
  m.fds.push_back(Fd{1, {0}, {1}});
  m.sigma = {Dependency(m.inds[0]), Dependency(m.fds[0])};
  m.derivable = Fd{0, {0}, {1}};
  m.chase_only = Fd{1, {0}, {1}};  // hypothesis itself: chase trivial
  return m;
}

void BM_FacadePureFd(benchmark::State& state) {
  FdChain c = MakeFdChain(static_cast<std::size_t>(state.range(0)));
  ImplicationSolver solver(c.scheme, c.sigma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(Dependency(c.target)));
  }
}
BENCHMARK(BM_FacadePureFd)->RangeMultiplier(4)->Range(8, 128);

void BM_LegacyPureFd(benchmark::State& state) {
  FdChain c = MakeFdChain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FdImplies(*c.scheme, c.fds, c.target));
  }
}
BENCHMARK(BM_LegacyPureFd)->RangeMultiplier(4)->Range(8, 128);

void BM_FacadePureInd(benchmark::State& state) {
  IndChain c = MakeIndChain(static_cast<std::size_t>(state.range(0)));
  ImplicationSolver solver(c.scheme, c.sigma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(Dependency(c.target)));
  }
}
BENCHMARK(BM_FacadePureInd)->RangeMultiplier(4)->Range(8, 128);

void BM_LegacyPureInd(benchmark::State& state) {
  IndChain c = MakeIndChain(static_cast<std::size_t>(state.range(0)));
  IndImplication engine(c.scheme, c.inds);
  IndDecisionOptions options;
  options.want_proof = true;  // the facade extracts a proof by default
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Decide(c.target, options));
  }
}
BENCHMARK(BM_LegacyPureInd)->RangeMultiplier(4)->Range(8, 128);

void BM_FacadeMixedDerivable(benchmark::State& state) {
  MixedInstance m = MakeMixed();
  ImplicationSolver solver(m.scheme, m.sigma);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(Dependency(m.derivable)));
  }
}
BENCHMARK(BM_FacadeMixedDerivable);

void BM_LegacyMixedChase(benchmark::State& state) {
  MixedInstance m = MakeMixed();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChaseImplies(m.scheme, m.fds, m.inds,
                                          Dependency(m.derivable), Budget()));
  }
}
BENCHMARK(BM_LegacyMixedChase);

/// JSON pairs: facade vs legacy per fragment (steps = chain length), plus
/// the staged-pipeline entries.
void EmitJsonReport(bool smoke) {
  BenchReporter reporter("solver");
  const std::size_t k = 64;
  {
    FdChain c = MakeFdChain(k);
    ImplicationSolver solver(c.scheme, c.sigma);
    std::uint64_t facade_wall = MedianWallNs(
        smoke ? 1 : 9, [&] { solver.Solve(Dependency(c.target)).value(); });
    std::uint64_t legacy_wall =
        MedianWallNs(smoke ? 1 : 9, [&] { FdImplies(*c.scheme, c.fds, c.target); });
    reporter.Add("pure_fd_facade", k, facade_wall, k);
    reporter.Add("pure_fd_legacy", k, legacy_wall, k);
  }
  {
    IndChain c = MakeIndChain(k);
    ImplicationSolver solver(c.scheme, c.sigma);
    IndImplication engine(c.scheme, c.inds);
    IndDecisionOptions options;
    options.want_proof = true;
    std::uint64_t facade_wall = MedianWallNs(
        smoke ? 1 : 9, [&] { solver.Solve(Dependency(c.target)).value(); });
    std::uint64_t legacy_wall =
        MedianWallNs(smoke ? 1 : 9, [&] { engine.Decide(c.target, options).value(); });
    reporter.Add("pure_ind_facade", k, facade_wall, k);
    reporter.Add("pure_ind_legacy", k, legacy_wall, k);
  }
  {
    // Unary fragment: the Theorem 4.4 gadget scaled to a 32-column chain.
    std::vector<std::string> attrs;
    for (std::size_t a = 0; a < 32; ++a) attrs.push_back(StrCat("A", a));
    SchemePtr scheme = MakeScheme({{"R", attrs}});
    std::vector<Fd> fds;
    std::vector<Ind> inds;
    std::vector<Dependency> sigma;
    for (AttrId a = 0; a + 1 < 32; ++a) {
      fds.push_back(Fd{0, {a}, {static_cast<AttrId>(a + 1)}});
      sigma.push_back(Dependency(fds.back()));
    }
    // Close the cardinality cycle (|r[A0]| <= |r[A31]| <= ... <= |r[A0]|)
    // so the counting rules reverse the whole chain: the target is
    // finitely implied — exactly the Theorem 4.4-style consequence.
    inds.push_back(Ind{0, {0}, 0, {31}});
    sigma.push_back(Dependency(inds.back()));
    Dependency target(Fd{0, {31}, {0}});
    SolveOptions finite;
    finite.semantics = ImplicationSemantics::kFinite;
    ImplicationSolver solver(scheme, sigma, finite);
    std::uint64_t facade_wall =
        MedianWallNs(smoke ? 1 : 9, [&] { solver.Solve(target).value(); });
    std::uint64_t legacy_wall = MedianWallNs(smoke ? 1 : 9, [&] {
      UnaryFiniteImplication engine(scheme, fds, inds);
      engine.Implies(target);
    });
    reporter.Add("unary_finite_facade", 32, facade_wall, 32);
    reporter.Add("unary_finite_legacy", 32, legacy_wall, 32);
  }
  {
    MixedInstance m = MakeMixed();
    ImplicationSolver solver(m.scheme, m.sigma);
    std::uint64_t derivation_wall = MedianWallNs(
        smoke ? 1 : 9, [&] { solver.Solve(Dependency(m.derivable)).value(); });
    std::uint64_t legacy_wall = MedianWallNs(smoke ? 1 : 9, [&] {
      ChaseImplies(m.scheme, m.fds, m.inds, Dependency(m.derivable), Budget())
          .value();
    });
    // A refuted query drives the full pipeline to the chase stage.
    Dependency refuted(Fd{0, {1}, {0}});
    std::uint64_t pipeline_wall =
        MedianWallNs(smoke ? 1 : 9, [&] { solver.Solve(refuted).value(); });
    reporter.Add("mixed_derivable_facade", 1, derivation_wall, 1);
    reporter.Add("mixed_chase_legacy", 1, legacy_wall, 1);
    reporter.Add("mixed_refuted_pipeline_facade", 1, pipeline_wall, 1);
  }
  reporter.WriteFile();
  std::fprintf(stderr, "BENCH_solver.json written\n");
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
