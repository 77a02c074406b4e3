// Determinism and coverage properties of the refutation portfolio
// (search/portfolio.h):
//   (a) the portfolio's sweep agrees rung for rung with standalone bounded
//       searches at each rung's shape and candidate share — reports,
//       winner, totals, and witness — including budgets that drain
//       mid-rung, stops at the first find, and renders identically when
//       rerun over warm compiled tables;
//   (b) shape monotonicity — a counterexample found within shape (t, d)
//       is also found within (t+1, d) and (t, d+1): growing the ladder
//       never loses a refutation;
//   (a') a sweep split in two ranges of one ladder (RunRungs) — the
//       solver's cheap rungs before the chase and the rest after it —
//       reports exactly what one Run does, at every split point;
//   (c) the PR's acceptance workload — a query whose smallest
//       counterexample needs a third tuple, kUnknown under the classic
//       fixed 2x2 search — flips to a verified kNotImplied under the
//       portfolio with the same total Budget, and its verdict ends at the
//       finding rung.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/satisfies.h"
#include "search/portfolio.h"
#include "solve/solver.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ccfp {
namespace {

/// Canonical rendering of everything a sweep reports: the winner, the
/// totals, and each rung's (shape, status, share, candidates, note)
/// tuple. Two runs are "bit-identical" iff these strings match and the
/// witnesses compare equal.
std::string Render(const PortfolioResult& r) {
  std::string out = StrCat("winner=", r.winner == PortfolioResult::kNoRung
                                          ? std::string("none")
                                          : StrCat(r.winner),
                           " candidates=", r.candidates_tested,
                           " scanned=", r.rungs_scanned,
                           " skipped=", r.rungs_skipped);
  for (const RungReport& rung : r.rungs) {
    out += StrCat("\n  [", rung.shape.ToString(), "] ",
                  RungStatusToString(rung.status), " share=", rung.share,
                  " candidates=", rung.candidates_tested, " note=", rung.note);
  }
  return out;
}

struct Workload {
  SchemePtr scheme;
  std::vector<Dependency> sigma;
  Dependency target{Fd{0, {0}, {0}}};  // placeholder; always overwritten
};

/// Random two-relation FD+IND workloads over arity-2 relations: small
/// enough that several ladder rungs fully scan, varied enough that some
/// queries refute at rung 0, some only above it, and some not at all.
Workload RandomWorkload(SplitMix64& rng) {
  Workload w;
  w.scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::size_t deps = 1 + rng.Below(3);
  for (std::size_t i = 0; i < deps; ++i) {
    if (rng.Chance(1, 2)) {
      RelId rel = static_cast<RelId>(rng.Below(2));
      AttrId x = static_cast<AttrId>(rng.Below(2));
      w.sigma.push_back(Dependency(Fd{rel, {x}, {static_cast<AttrId>(1 - x)}}));
    } else {
      Ind ind{static_cast<RelId>(rng.Below(2)),
              {static_cast<AttrId>(rng.Below(2))},
              static_cast<RelId>(rng.Below(2)),
              {static_cast<AttrId>(rng.Below(2))}};
      if (!Validate(*w.scheme, ind).ok() || IsTrivial(ind)) continue;
      w.sigma.push_back(Dependency(ind));
    }
  }
  if (rng.Chance(1, 2)) {
    RelId rel = static_cast<RelId>(rng.Below(2));
    AttrId x = static_cast<AttrId>(rng.Below(2));
    w.target = Dependency(Fd{rel, {x}, {static_cast<AttrId>(1 - x)}});
  } else {
    w.target = Dependency(Ind{0, {static_cast<AttrId>(rng.Below(2))}, 1,
                              {static_cast<AttrId>(rng.Below(2))}});
  }
  return w;
}

/// Runs the portfolio (default options: 2x2 base, +2/+2 growth, 6 rungs)
/// and checks every rung it reached against a standalone bounded search
/// at that rung's shape and share; then reruns it over the now-warm table
/// cache and expects an identical result.
void ExpectMatchesStandaloneRungs(const Workload& w, const Budget& budget) {
  BoundedSearchWorkspace tables;
  PortfolioOptions opts;
  opts.workspace = &tables;
  RefutationPortfolio portfolio(w.scheme, w.sigma, w.target, opts);
  Result<PortfolioResult> run = portfolio.Run(budget);
  ASSERT_TRUE(run.ok()) << run.status();

  const std::vector<SearchShape>& ladder = portfolio.ladder();
  if (run->winner == PortfolioResult::kNoRung) {
    EXPECT_EQ(run->rungs.size(), ladder.size())
        << "an undecided sweep reports every rung";
  } else {
    EXPECT_EQ(run->rungs.size(), run->winner + 1)
        << "the sweep stops at the finding rung";
  }
  std::uint64_t candidates = 0, scanned = 0, skipped = 0;
  for (std::size_t i = 0; i < run->rungs.size(); ++i) {
    const RungReport& rung = run->rungs[i];
    EXPECT_TRUE(rung.shape == ladder[i]) << "rung " << i;
    BoundedSearchOptions alone_opts;
    alone_opts.max_tuples_per_relation = rung.shape.max_tuples_per_relation;
    alone_opts.domain_size = rung.shape.domain_size;
    alone_opts.max_bytes = budget.bytes;
    if (rung.status == RungStatus::kSkipped) {
      if (i == 0) {
        EXPECT_FALSE(EstimateBoundedSearch(*w.scheme, w.sigma, w.target,
                                           alone_opts)
                         .id_space_feasible)
            << "rung 0 is skipped only when its estimate is infeasible";
      }
      EXPECT_EQ(rung.candidates_tested, 0u);
      ++skipped;
      continue;
    }
    alone_opts.max_candidates = rung.share;
    Result<BoundedSearchResult> alone =
        FindCounterexample(w.scheme, w.sigma, w.target, alone_opts);
    ASSERT_TRUE(alone.ok()) << alone.status();
    EXPECT_EQ(rung.candidates_tested, alone->candidates_tested)
        << "rung " << i;
    candidates += rung.candidates_tested;
    if (alone->counterexample.has_value()) {
      EXPECT_EQ(rung.status, RungStatus::kFound) << "rung " << i;
      EXPECT_EQ(run->winner, i);
      ASSERT_TRUE(run->counterexample.has_value());
      EXPECT_TRUE(*run->counterexample == *alone->counterexample)
          << "witness differs from the standalone search at rung " << i;
    } else if (alone->exhausted) {
      EXPECT_EQ(rung.status, RungStatus::kFullScan) << "rung " << i;
      ++scanned;
    } else {
      EXPECT_EQ(rung.status, RungStatus::kBudget) << "rung " << i;
    }
  }
  EXPECT_EQ(run->candidates_tested, candidates);
  EXPECT_EQ(run->rungs_scanned, scanned);
  EXPECT_EQ(run->rungs_skipped, skipped);

  Result<PortfolioResult> warm = portfolio.Run(budget);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(Render(*warm), Render(*run)) << "warm rerun diverged";
  ASSERT_EQ(warm->counterexample.has_value(), run->counterexample.has_value());
  if (warm->counterexample.has_value()) {
    EXPECT_TRUE(*warm->counterexample == *run->counterexample);
  }
}

/// For every split point k: rungs [0, k), then — only when they found
/// nothing — rungs [k, n) Append-ed, must equal one Run(budget): per-rung
/// status, share, candidate count and note, winner, totals, largest
/// scanned shape and witness.
void ExpectSplitSweepMatchesRun(const Workload& w, const Budget& budget) {
  BoundedSearchWorkspace tables;
  PortfolioOptions opts;
  opts.workspace = &tables;
  RefutationPortfolio portfolio(w.scheme, w.sigma, w.target, opts);
  Result<PortfolioResult> whole = portfolio.Run(budget);
  ASSERT_TRUE(whole.ok()) << whole.status();
  const std::size_t n = portfolio.ladder().size();
  for (std::size_t k = 0; k <= n; ++k) {
    Result<PortfolioResult> split = portfolio.RunRungs(budget, 0, k);
    ASSERT_TRUE(split.ok()) << split.status();
    if (split->winner == PortfolioResult::kNoRung) {
      Result<PortfolioResult> rest = portfolio.RunRungs(budget, k, n);
      ASSERT_TRUE(rest.ok()) << rest.status();
      split->Append(rest.MoveValue());
    }
    EXPECT_EQ(Render(*split), Render(*whole)) << "split at rung " << k;
    EXPECT_EQ(split->largest_scanned.has_value(),
              whole->largest_scanned.has_value());
    if (split->largest_scanned.has_value() &&
        whole->largest_scanned.has_value()) {
      EXPECT_TRUE(*split->largest_scanned == *whole->largest_scanned);
    }
    ASSERT_EQ(split->counterexample.has_value(),
              whole->counterexample.has_value());
    if (split->counterexample.has_value()) {
      EXPECT_TRUE(*split->counterexample == *whole->counterexample)
          << "split at rung " << k;
    }
  }
}

class PortfolioPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

// --- (a) rung-for-rung agreement under an ample budget -----------------

TEST_P(PortfolioPropertyTest, MatchesStandaloneSearchAtEveryRung) {
  SplitMix64 rng(GetParam() * 193 + 3);
  for (int i = 0; i < 3; ++i) {
    Workload w = RandomWorkload(rng);
    Budget budget;
    budget.steps = 20000;  // funds several rungs, drains the tail
    ExpectMatchesStandaloneRungs(w, budget);
  }
}

// --- (a) rung-for-rung agreement when the budget drains mid-rung --------

TEST_P(PortfolioPropertyTest, MatchesStandaloneSearchUnderMidRungStarvation) {
  SplitMix64 rng(GetParam() * 977 + 41);
  Workload w = RandomWorkload(rng);
  // Sweep budgets from "rung 0 stops after one candidate" through "the
  // tail rungs get partial shares": every SplitLadder boundary shape —
  // full shares, truncated shares, drained-to-zero shares — shows up at
  // some point of this ladder of budgets.
  for (std::uint64_t steps : {1ull, 3ull, 10ull, 40ull, 200ull, 1000ull,
                              5000ull}) {
    Budget budget;
    budget.steps = steps;
    ExpectMatchesStandaloneRungs(w, budget);
  }
}

// --- (a) a zero-step budget funds no rung -------------------------------

TEST_P(PortfolioPropertyTest, ZeroStepBudgetSkipsEveryRungWithItsOwnReason) {
  SplitMix64 rng(GetParam() * 193 + 3);
  for (int i = 0; i < 3; ++i) {
    Workload w = RandomWorkload(rng);
    RefutationPortfolio portfolio(w.scheme, w.sigma, w.target);
    Budget budget;
    budget.steps = 0;
    Result<PortfolioResult> run = portfolio.Run(budget);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->winner, PortfolioResult::kNoRung);
    EXPECT_EQ(run->candidates_tested, 0u);
    ASSERT_EQ(run->rungs.size(), portfolio.ladder().size());
    EXPECT_EQ(run->rungs_skipped, run->rungs.size());
    for (const RungReport& rung : run->rungs) {
      EXPECT_EQ(rung.status, RungStatus::kSkipped) << rung.shape.ToString();
      EXPECT_EQ(rung.note.find("smaller shapes"), std::string::npos)
          << "no smaller shape spent a zero budget: " << rung.note;
    }
    // Rung 0 has no smaller shapes; when it is feasible, its note names
    // the empty budget.
    if (run->rungs[0].note.starts_with("skipped: compiled tables")) continue;
    EXPECT_NE(run->rungs[0].note.find("no candidate budget"),
              std::string::npos)
        << run->rungs[0].note;
  }
}

// --- (a') a sweep split in two ranges equals one sweep -------------------

TEST_P(PortfolioPropertyTest, SplitSweepEqualsOneRun) {
  SplitMix64 ample(GetParam() * 193 + 3);  // the ample-budget workloads
  for (int i = 0; i < 3; ++i) {
    Workload w = RandomWorkload(ample);
    Budget budget;
    budget.steps = 20000;
    ExpectSplitSweepMatchesRun(w, budget);
  }
  SplitMix64 starved(GetParam() * 977 + 41);  // the mid-rung workloads
  Workload w = RandomWorkload(starved);
  for (std::uint64_t steps : {1ull, 3ull, 10ull, 40ull, 200ull, 1000ull,
                              5000ull}) {
    Budget budget;
    budget.steps = steps;
    ExpectSplitSweepMatchesRun(w, budget);
  }
}

// --- (b) shape monotonicity ---------------------------------------------

TEST_P(PortfolioPropertyTest, GrowingTheShapeNeverLosesARefutation) {
  SplitMix64 rng(GetParam() * 59 + 17);
  for (int i = 0; i < 3; ++i) {
    Workload w = RandomWorkload(rng);
    BoundedSearchOptions base;
    base.max_tuples_per_relation = 2;
    base.domain_size = 2;
    Result<BoundedSearchResult> small =
        FindCounterexample(w.scheme, w.sigma, w.target, base);
    ASSERT_TRUE(small.ok()) << small.status();
    if (!small->counterexample.has_value()) continue;
    for (int axis = 0; axis < 2; ++axis) {
      BoundedSearchOptions grown = base;
      if (axis == 0) {
        grown.max_tuples_per_relation++;
      } else {
        grown.domain_size++;
      }
      Result<BoundedSearchResult> large =
          FindCounterexample(w.scheme, w.sigma, w.target, grown);
      ASSERT_TRUE(large.ok()) << large.status();
      EXPECT_TRUE(large->counterexample.has_value())
          << "refutation lost growing axis " << axis << " for "
          << w.target.ToString(*w.scheme);
    }
  }
}

TEST(PortfolioTest, ADependencyOutsideTheSchemeIsRefusedNotPriced) {
  // The ladder is priced at construction, before RunRungs validates:
  // relations outside the scheme must price as infeasible, never index
  // past the per-relation tables (ASan reports the read).
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}});
  for (const Dependency& bad :
       {Dependency(Fd{7, {0}, {1}}), Dependency(Ind{0, {0}, 7, {0}}),
        Dependency(Rd{7, {0}, {1}}), Dependency(Emvd{7, {0}, {1}, {}}),
        Dependency(Mvd{7, {0}, {1}})}) {
    RefutationPortfolio portfolio(scheme, {bad}, Dependency(Fd{0, {1}, {0}}));
    Result<PortfolioResult> run = portfolio.Run(Budget());
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortfolioPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- (c) the acceptance workload ----------------------------------------

/// R(A,B,C) with sigma = { A -> B, R[B,C] <= R[C,A] } and target
/// R: A -> C. With exactly two tuples any A -> C violation forces, via
/// the IND, a = b = c1 and then c1 = c2 — contradiction — so no 2-tuple
/// counterexample exists at any domain size and the classic fixed 2x2
/// search exhausts its shape; the whole mixed pipeline lands on kUnknown
/// (the cyclic IND diverges the chase, the sound rules cannot derive the
/// target). The ladder's 3-tuple rung finds the minimal witness
/// (0,0,0), (0,0,1), (1,0,0).
Workload WideWorkload() {
  Workload w;
  w.scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  w.sigma.push_back(Dependency(Fd{0, {0}, {1}}));
  w.sigma.push_back(Dependency(Ind{0, {1, 2}, 0, {2, 0}}));
  w.target = Dependency(Fd{0, {0}, {2}});
  return w;
}

TEST(PortfolioAcceptanceTest, WideWorkloadFlipsUnknownToNotImplied) {
  Workload w = WideWorkload();
  Budget budget;  // the default budget, identical for both solvers

  SolveOptions fixed;
  fixed.search_max_rungs = 1;  // the classic single-shape search
  ImplicationSolver fixed_solver(w.scheme, w.sigma, fixed);
  Verdict before = fixed_solver.Solve(w.target, budget).value();
  EXPECT_EQ(before.outcome, ImplicationVerdict::kUnknown)
      << before.ToString(*w.scheme);

  ImplicationSolver portfolio_solver(w.scheme, w.sigma);
  Verdict after = portfolio_solver.Solve(w.target, budget).value();
  EXPECT_EQ(after.outcome, ImplicationVerdict::kNotImplied)
      << after.ToString(*w.scheme);
  ASSERT_TRUE(after.counterexample.has_value());
  EXPECT_TRUE(after.counterexample_verified);
  // Belt and braces: re-check the witness with the legacy model checker.
  SatisfiesOptions legacy{SatisfiesEngine::kLegacy};
  for (const Dependency& dep : w.sigma) {
    EXPECT_TRUE(Satisfies(*after.counterexample, dep, legacy));
  }
  EXPECT_FALSE(Satisfies(*after.counterexample, w.target, legacy));
}

TEST(PortfolioAcceptanceTest, WideWorkloadVerdictEndsAtTheFindingRung) {
  Workload w = WideWorkload();
  ImplicationSolver solver(w.scheme, w.sigma);
  Verdict v = solver.Solve(w.target, Budget()).value();
  ASSERT_EQ(v.outcome, ImplicationVerdict::kNotImplied);
  std::string rendered = v.ToString(*w.scheme);
  EXPECT_EQ(rendered.find("superseded"), std::string::npos) << rendered;
  // The sweep stops at the find: the last search stage is the finding
  // rung, and no stage follows it.
  ASSERT_FALSE(v.stages.empty());
  const StageReport& last = v.stages.back();
  EXPECT_EQ(last.stage, "search") << rendered;
  EXPECT_EQ(last.verdict, ImplicationVerdict::kNotImplied) << rendered;
  EXPECT_EQ(last.note.rfind("counterexample found at ", 0), 0u) << rendered;
}

}  // namespace
}  // namespace ccfp
