// The adaptive refutation portfolio (search/portfolio.h): fixed-shape
// vs shape-ladder pairs, emitted to BENCH_portfolio.json.
//
// Two workloads exercise the two regimes:
//   * `wide` — R(A,B,C) with { A -> B, R[B,C] <= R[C,A] } |/= A -> C.
//     The smallest counterexample needs a third tuple, so the fixed 2x2
//     search exhausts (kUnknown) while the ladder's 3-tuple rung refutes.
//   * `implied` — an FD chain whose target really is implied, so no rung
//     ever finds a witness and the portfolio pays for the full ladder
//     scan (the worst case the skip/funding logic has to keep cheap).
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "bench/reporter.h"
#include "core/schema.h"
#include "search/portfolio.h"
#include "solve/solver.h"
#include "util/budget.h"
#include "util/check.h"
#include "util/strings.h"

namespace ccfp {
namespace {

struct Workload {
  const char* name;
  SchemePtr scheme;
  std::vector<Dependency> sigma;
  Dependency target{Fd{0, {0}, {0}}};  // placeholder; always overwritten
};

/// Refutable only above the base shape: witness (0,0,0),(0,0,1),(1,0,0).
Workload WideWorkload() {
  Workload w;
  w.name = "wide";
  w.scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  w.sigma.push_back(Dependency(Fd{0, {0}, {1}}));
  w.sigma.push_back(Dependency(Ind{0, {1, 2}, 0, {2, 0}}));
  w.target = Dependency(Fd{0, {0}, {2}});
  return w;
}

/// Implied (A -> B, B -> C |= A -> C): every funded rung fully scans.
Workload ImpliedWorkload() {
  Workload w;
  w.name = "implied";
  w.scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  w.sigma.push_back(Dependency(Fd{0, {0}, {1}}));
  w.sigma.push_back(Dependency(Fd{0, {1}, {2}}));
  w.target = Dependency(Fd{0, {0}, {2}});
  return w;
}

/// Times one portfolio sweep; `max_rungs` 1 is the classic fixed-shape
/// search, 0 keeps the default ladder. Returns candidates via `tested`.
WallNs TimePortfolio(const Workload& w, const Budget& budget,
                            std::size_t max_rungs, bool smoke,
                            std::uint64_t* tested, bool* found) {
  return MeasureWallNs(smoke ? 1 : 5, [&] {
    PortfolioOptions options;
    if (max_rungs != 0) options.max_rungs = max_rungs;
    RefutationPortfolio portfolio(w.scheme, w.sigma, w.target, options);
    Result<PortfolioResult> run = portfolio.Run(budget);
    CCFP_CHECK(run.ok());
    *tested = run->candidates_tested;
    *found = run->counterexample.has_value();
  });
}

void EmitJsonReport(bool smoke) {
  BenchReporter reporter("portfolio");

  // --- fixed-shape vs ladder, on the bare portfolio -------------------
  for (const Workload& w : {WideWorkload(), ImpliedWorkload()}) {
    Budget budget;
    // Bound the implied workload's full-ladder scan so its wall time is
    // a deterministic function of the budget, not of the largest shape.
    budget.steps = smoke ? 2000 : 200000;
    std::uint64_t tested[2] = {0, 0};
    bool found[2] = {false, false};
    WallNs fixed_wall =
        TimePortfolio(w, budget, /*max_rungs=*/1, smoke, &tested[0],
                      &found[0]);
    WallNs ladder_wall =
        TimePortfolio(w, budget, /*max_rungs=*/0, smoke, &tested[1],
                      &found[1]);
    // The ladder never loses a refutation the fixed shape had.
    CCFP_CHECK(!found[0] || found[1]);
    reporter.Add(StrCat(w.name, "_fixed"), budget.steps, fixed_wall,
                 tested[0]);
    reporter.Add(StrCat(w.name, "_ladder"), budget.steps, ladder_wall,
                 tested[1]);
    std::fprintf(stderr,
                 "%s: fixed %.2f ms (%llu candidates, found=%d), ladder "
                 "%.2f ms (%llu candidates, found=%d)\n",
                 w.name, fixed_wall.median / 1e6,
                 static_cast<unsigned long long>(tested[0]), found[0] ? 1 : 0,
                 ladder_wall.median / 1e6,
                 static_cast<unsigned long long>(tested[1]),
                 found[1] ? 1 : 0);
  }

  // --- fixed-shape vs ladder, through the whole solver ----------------
  {
    Workload w = WideWorkload();
    Budget budget;  // the default budget, identical for both solvers
    ImplicationVerdict outcome[2] = {ImplicationVerdict::kUnknown,
                                     ImplicationVerdict::kUnknown};
    WallNs wall[2];
    for (int ladder = 0; ladder < 2; ++ladder) {
      SolveOptions options;
      if (ladder == 0) options.search_max_rungs = 1;
      wall[ladder] = MeasureWallNs(smoke ? 1 : 5, [&] {
        ImplicationSolver solver(w.scheme, w.sigma, options);
        Result<Verdict> v = solver.Solve(w.target, budget);
        CCFP_CHECK(v.ok());
        outcome[ladder] = v->outcome;
      });
    }
    // The acceptance pair: same budget, kUnknown -> kNotImplied.
    CCFP_CHECK(outcome[0] == ImplicationVerdict::kUnknown);
    CCFP_CHECK(outcome[1] == ImplicationVerdict::kNotImplied);
    reporter.Add("solver_wide_fixed", 1, wall[0], 0);
    reporter.Add("solver_wide_ladder", 1, wall[1], 1);
    std::fprintf(stderr,
                 "solver wide: fixed %.2f ms (kUnknown), ladder %.2f ms "
                 "(kNotImplied)\n",
                 wall[0].median / 1e6, wall[1].median / 1e6);
  }

  reporter.WriteFile();
}

}  // namespace
}  // namespace ccfp

int main(int argc, char** argv) {
  return ccfp::RunBenchMain(argc, argv,
                            [](bool smoke) { ccfp::EmitJsonReport(smoke); });
}
