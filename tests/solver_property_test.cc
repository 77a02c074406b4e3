// Verdict-consistency properties of the ImplicationSolver façade:
//   (a) on each fragment's native instances the solver agrees with the
//       legacy entry point for that fragment (FdImplies, the IND BFS, the
//       unary engines, ChaseImplies);
//   (b) monotonicity — a decisive verdict (kImplied / kNotImplied) never
//       flips under a larger Budget; only kUnknown may resolve;
//   (c) every attached counterexample is genuine (re-checked with the
//       legacy Value-hashing model checker);
//   (d) on a random mixed mix the refute-first stage order decides
//       exactly what the chase-first order decided.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "chase/chase.h"
#include "core/satisfies.h"
#include "fd/closure.h"
#include "ind/implication.h"
#include "interact/derivation.h"
#include "interact/unary_finite.h"
#include "search/portfolio.h"
#include "solve/solver.h"
#include "util/rng.h"

namespace ccfp {
namespace {

void ExpectCounterexampleGenuine(const Verdict& v,
                                 const std::vector<Dependency>& sigma,
                                 const Dependency& target,
                                 const DatabaseScheme& scheme) {
  if (!v.counterexample.has_value()) return;
  SatisfiesOptions legacy{SatisfiesEngine::kLegacy};
  for (const Dependency& dep : sigma) {
    if (IsTrivial(scheme, dep)) continue;
    EXPECT_TRUE(Satisfies(*v.counterexample, dep, legacy))
        << "counterexample violates sigma member "
        << dep.ToString(scheme);
  }
  EXPECT_FALSE(Satisfies(*v.counterexample, target, legacy))
      << "counterexample satisfies the target "
      << target.ToString(scheme);
}

/// Monotonicity: solve under a tiny budget and under the default budget;
/// a decisive tiny-budget verdict must be preserved.
void ExpectMonotone(ImplicationSolver& solver, const Dependency& target,
                    const DatabaseScheme& scheme) {
  Result<Verdict> small = solver.Solve(target, Budget::Tiny());
  Result<Verdict> large = solver.Solve(target, Budget());
  ASSERT_TRUE(small.ok()) << small.status();
  ASSERT_TRUE(large.ok()) << large.status();
  if (small->outcome != ImplicationVerdict::kUnknown) {
    EXPECT_EQ(small->outcome, large->outcome)
        << "verdict flipped under a larger budget for "
        << target.ToString(scheme);
  }
}

class SolverPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

// --- (a) pure-FD agreement with FdImplies -------------------------------

TEST_P(SolverPropertyTest, PureFdAgreesWithClosure) {
  SplitMix64 rng(GetParam() * 77 + 5);
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C", "D"}}});
  std::vector<Fd> fds;
  std::vector<Dependency> sigma;
  for (int i = 0; i < 4; ++i) {
    AttrId x = static_cast<AttrId>(rng.Below(4));
    AttrId y = static_cast<AttrId>(rng.Below(4));
    if (x == y) continue;
    Fd fd{0, {x}, {y}};
    if (rng.Chance(1, 3)) fd.lhs.push_back(static_cast<AttrId>((y + 1) % 4));
    if (fd.lhs.size() == 2 && fd.lhs[0] == fd.lhs[1]) fd.lhs.pop_back();
    fds.push_back(fd);
    sigma.push_back(Dependency(fd));
  }
  ImplicationSolver solver(scheme, sigma);
  for (int t = 0; t < 6; ++t) {
    AttrId x = static_cast<AttrId>(rng.Below(4));
    AttrId y = static_cast<AttrId>(rng.Below(4));
    if (x == y) continue;
    Fd target{0, {x}, {y}};
    Verdict v = solver.Solve(Dependency(target)).value();
    EXPECT_EQ(v.implied(), FdImplies(*scheme, fds, target))
        << Dependency(target).ToString(*scheme);
    EXPECT_NE(v.outcome, ImplicationVerdict::kUnknown);
    ExpectCounterexampleGenuine(v, sigma, Dependency(target), *scheme);
    ExpectMonotone(solver, Dependency(target), *scheme);
  }
}

// --- (a) pure-IND agreement with the Corollary 3.2 BFS ------------------

TEST_P(SolverPropertyTest, PureIndAgreesWithBfs) {
  SplitMix64 rng(GetParam() * 131 + 7);
  std::size_t relations = 3;
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t r = 0; r < relations; ++r) {
    rels.emplace_back("R" + std::to_string(r),
                      std::vector<std::string>{"A", "B", "C"});
  }
  SchemePtr scheme = MakeScheme(rels);
  std::vector<Ind> inds;
  std::vector<Dependency> sigma;
  std::size_t count = 2 + rng.Below(3);
  for (std::size_t i = 0; i < count; ++i) {
    RelId r1 = static_cast<RelId>(rng.Below(relations));
    RelId r2 = static_cast<RelId>(rng.Below(relations));
    std::size_t width = 1 + rng.Below(2);
    std::vector<AttrId> all = {0, 1, 2};
    std::swap(all[rng.Below(3)], all[2]);
    std::vector<AttrId> lhs(all.begin(), all.begin() + width);
    std::swap(all[rng.Below(3)], all[2]);
    std::vector<AttrId> rhs(all.begin(), all.begin() + width);
    inds.push_back(Ind{r1, lhs, r2, rhs});
    sigma.push_back(Dependency(inds.back()));
  }
  ImplicationSolver solver(scheme, sigma);
  IndImplication engine(scheme, inds);
  for (int t = 0; t < 5; ++t) {
    RelId r1 = static_cast<RelId>(rng.Below(relations));
    RelId r2 = static_cast<RelId>(rng.Below(relations));
    AttrId a = static_cast<AttrId>(rng.Below(3));
    AttrId b = static_cast<AttrId>(rng.Below(3));
    Ind target{r1, {a}, r2, {b}};
    if (!Validate(*scheme, target).ok()) continue;
    Verdict v = solver.Solve(Dependency(target)).value();
    Result<bool> via_bfs = engine.Implies(target);
    ASSERT_TRUE(via_bfs.ok()) << via_bfs.status();
    EXPECT_NE(v.outcome, ImplicationVerdict::kUnknown);
    EXPECT_EQ(v.implied(), *via_bfs)
        << Dependency(target).ToString(*scheme);
    ExpectCounterexampleGenuine(v, sigma, Dependency(target), *scheme);
    ExpectMonotone(solver, Dependency(target), *scheme);
  }
}

// --- (a) unary agreement with both unary engines ------------------------

TEST_P(SolverPropertyTest, UnaryAgreesWithBothSemantics) {
  SplitMix64 rng(GetParam() * 17 + 29);
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  std::vector<Dependency> sigma;
  for (int i = 0; i < 4; ++i) {
    if (rng.Chance(1, 2)) {
      RelId rel = static_cast<RelId>(rng.Below(2));
      AttrId x = static_cast<AttrId>(rng.Below(2));
      Fd fd{rel, {x}, {static_cast<AttrId>(1 - x)}};
      fds.push_back(fd);
      sigma.push_back(Dependency(fd));
    } else {
      RelId r1 = static_cast<RelId>(rng.Below(2));
      RelId r2 = static_cast<RelId>(rng.Below(2));
      Ind ind{r1,
              {static_cast<AttrId>(rng.Below(2))},
              r2,
              {static_cast<AttrId>(rng.Below(2))}};
      if (!Validate(*scheme, ind).ok() || IsTrivial(ind)) continue;
      inds.push_back(ind);
      sigma.push_back(Dependency(ind));
    }
  }
  if (fds.empty() || inds.empty()) return;  // pure fragments covered above
  UnaryFiniteImplication finite(scheme, fds, inds);
  UnaryUnrestrictedImplication unrestricted(scheme, fds, inds);
  SolveOptions finite_opts;
  finite_opts.semantics = ImplicationSemantics::kFinite;
  ImplicationSolver finite_solver(scheme, sigma, finite_opts);
  ImplicationSolver unrestricted_solver(scheme, sigma);
  for (int t = 0; t < 6; ++t) {
    RelId rel = static_cast<RelId>(rng.Below(2));
    AttrId x = static_cast<AttrId>(rng.Below(2));
    Dependency target =
        rng.Chance(1, 2)
            ? Dependency(Fd{rel, {x}, {static_cast<AttrId>(1 - x)}})
            : Dependency(Ind{rel,
                             {x},
                             static_cast<RelId>(rng.Below(2)),
                             {static_cast<AttrId>(rng.Below(2))}});
    if (!Validate(*scheme, target).ok()) continue;
    if (ClassifyImplicationFragment(*scheme, sigma, target) !=
        ImplicationFragment::kUnary) {
      continue;  // e.g. trivial-after-filter sigma demotes to pure
    }
    Verdict vf = finite_solver.Solve(target).value();
    Verdict vu = unrestricted_solver.Solve(target).value();
    EXPECT_EQ(vf.implied(), finite.Implies(target))
        << target.ToString(*scheme);
    EXPECT_EQ(vu.implied(), unrestricted.Implies(target))
        << target.ToString(*scheme);
    ExpectCounterexampleGenuine(vu, sigma, target, *scheme);
    ExpectMonotone(unrestricted_solver, target, *scheme);
  }
}

// --- (a) mixed agreement with ChaseImplies on acyclic instances ---------

TEST_P(SolverPropertyTest, MixedAgreesWithChaseOnAcyclic) {
  SplitMix64 rng(GetParam() * 313 + 11);
  // Acyclic IND graph (forward edges only): the chase terminates, so the
  // legacy semi-decision is exact and the solver must match it.
  std::size_t relations = 3;
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t r = 0; r < relations; ++r) {
    rels.emplace_back("R" + std::to_string(r),
                      std::vector<std::string>{"A", "B", "C"});
  }
  SchemePtr scheme = MakeScheme(rels);
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  std::vector<Dependency> sigma;
  for (std::size_t r = 0; r < relations; ++r) {
    AttrId x = static_cast<AttrId>(rng.Below(3));
    AttrId y = static_cast<AttrId>(rng.Below(3));
    if (x == y) continue;
    fds.push_back(Fd{static_cast<RelId>(r), {x}, {y}});
    sigma.push_back(Dependency(fds.back()));
  }
  for (int i = 0; i < 3; ++i) {
    RelId r1 = static_cast<RelId>(rng.Below(relations - 1));
    RelId r2 =
        static_cast<RelId>(r1 + 1 + rng.Below(relations - r1 - 1));
    std::size_t width = 1 + rng.Below(2);
    std::vector<AttrId> all = {0, 1, 2};
    std::swap(all[rng.Below(3)], all[2]);
    std::vector<AttrId> lhs(all.begin(), all.begin() + width);
    std::swap(all[rng.Below(3)], all[2]);
    std::vector<AttrId> rhs(all.begin(), all.begin() + width);
    inds.push_back(Ind{r1, lhs, r2, rhs});
    sigma.push_back(Dependency(inds.back()));
  }
  if (fds.empty() || inds.empty()) return;
  ImplicationSolver solver(scheme, sigma);
  for (int t = 0; t < 5; ++t) {
    RelId rel = static_cast<RelId>(rng.Below(relations));
    AttrId x = static_cast<AttrId>(rng.Below(3));
    AttrId y = static_cast<AttrId>(rng.Below(3));
    if (x == y) continue;
    Dependency target =
        rng.Chance(1, 2)
            ? Dependency(Fd{rel, {x}, {y}})
            : Dependency(
                  Ind{rel, {x}, static_cast<RelId>(rng.Below(relations)),
                      {y}});
    if (!Validate(*scheme, target).ok()) continue;
    Result<ChaseImplication> via_chase =
        ChaseImplies(scheme, fds, inds, target, Budget());
    // Budget (should not happen: acyclic).
    if (!via_chase.ok() || via_chase->verdict == ImplicationVerdict::kUnknown) {
      continue;
    }
    Verdict v = solver.Solve(target).value();
    EXPECT_NE(v.outcome, ImplicationVerdict::kUnknown)
        << target.ToString(*scheme);
    EXPECT_EQ(v.outcome, via_chase->verdict) << target.ToString(*scheme);
    ExpectCounterexampleGenuine(v, sigma, target, *scheme);
    ExpectMonotone(solver, target, *scheme);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 26));

// --- (d) refute first vs chase first on a random mixed mix --------------

/// The mixed route in the chase-first stage order, as a reference:
/// derivation, then the chase of the canonical seed, then one full sweep
/// of the refutation ladder, each on its Budget::Split share.
ImplicationVerdict ChaseFirstOutcome(SchemePtr scheme,
                                     const std::vector<Dependency>& sigma,
                                     const Dependency& target,
                                     const Budget& budget) {
  Budget slice = budget.Split(SolveOptions().mixed_stage_split);
  std::vector<Dependency> nontrivial;
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  for (const Dependency& dep : sigma) {
    if (IsTrivial(*scheme, dep)) continue;
    nontrivial.push_back(dep);
    if (dep.is_fd()) fds.push_back(dep.fd());
    if (dep.is_ind()) inds.push_back(dep.ind());
  }
  MixedDerivation derivation(scheme, nontrivial,
                             MixedDerivation::Options::FromBudget(slice));
  if (derivation.Saturate().ok() && derivation.Derives(target)) {
    return ImplicationVerdict::kImplied;
  }
  Result<ChaseImplication> chased =
      ChaseImplies(scheme, fds, inds, target, slice);
  if (chased.ok() && chased->verdict != ImplicationVerdict::kUnknown) {
    return chased->verdict;
  }
  Result<PortfolioResult> sweep =
      RefutationPortfolio(scheme, nontrivial, target).Run(slice);
  return sweep.ok() && sweep->counterexample.has_value()
             ? ImplicationVerdict::kNotImplied
             : ImplicationVerdict::kUnknown;
}

/// The random mixed mix: one arity-4 relation, 1-3 unary FDs, 1-2 INDs of
/// width <= 2, an FD target; only queries the solver routes to kMixed.
struct MixedMixQuery {
  std::vector<Dependency> sigma;
  Dependency target;
};

MixedMixQuery NextMixedMixQuery(const SchemePtr& scheme, SplitMix64& rng) {
  auto attrs = [&](std::size_t k) {
    std::vector<AttrId> all = {0, 1, 2, 3};
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(all[i], all[i + rng.Below(4 - i)]);
    }
    all.resize(k);
    return all;
  };
  while (true) {
    std::vector<Dependency> sigma;
    for (std::size_t i = 1 + rng.Below(3); i > 0; --i) {
      std::vector<AttrId> xy = attrs(2);
      sigma.push_back(Dependency(Fd{0, {xy[0]}, {xy[1]}}));
    }
    for (std::size_t i = 1 + rng.Below(2); i > 0; --i) {
      std::size_t width = 1 + rng.Below(2);
      sigma.push_back(Dependency(Ind{0, attrs(width), 0, attrs(width)}));
    }
    std::vector<AttrId> xyz = attrs(3);
    std::size_t k = 1 + rng.Below(2);
    Dependency target(
        Fd{0, std::vector<AttrId>(xyz.begin(), xyz.begin() + k), {xyz[2]}});
    if (ClassifyImplicationFragment(*scheme, sigma, target) ==
        ImplicationFragment::kMixed) {
      return MixedMixQuery{std::move(sigma), std::move(target)};
    }
  }
}

/// 1/16 of the default budget, so the divergent chases stay short.
Budget SixteenthBudget() {
  Budget budget;
  budget.steps /= 16;
  budget.tuples /= 16;
  return budget;
}

TEST(SolverMixedMixTest, RefuteFirstDecidesWhatChaseFirstDecided) {
  // 111 mixed queries from seed 7.
  SplitMix64 rng(7);
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C", "D"}}});
  Budget budget = SixteenthBudget();
  SolveOptions options;
  options.use_witness_cache = false;
  std::size_t decided = 0;
  for (std::size_t queries = 0; queries < 111; ++queries) {
    MixedMixQuery q = NextMixedMixQuery(scheme, rng);
    ImplicationSolver solver(scheme, q.sigma, options);
    Verdict v = solver.Solve(q.target, budget).value();
    EXPECT_EQ(v.outcome, ChaseFirstOutcome(scheme, q.sigma, q.target, budget))
        << v.ToString(*scheme);
    if (v.outcome != ImplicationVerdict::kUnknown) ++decided;
    if (v.not_implied()) {
      ASSERT_TRUE(v.counterexample.has_value()) << v.ToString(*scheme);
      ExpectCounterexampleGenuine(v, q.sigma, q.target, *scheme);
    }
  }
  EXPECT_GT(decided, 111u / 2);
}

/// The full observable answer: rendered verdict plus counterexample.
std::string Render(const Verdict& v, const DatabaseScheme& scheme) {
  std::string s = v.ToString(scheme);
  if (v.counterexample.has_value()) {
    s += "\n--counterexample--\n" + v.counterexample->ToString();
  }
  return s;
}

TEST(SolverMixedMixTest, TheChaseMemoIsInvisible) {
  // The same 111 queries. Each sigma gets one long-lived solver that is
  // asked the target, a sibling with the same canonical seed (same lhs,
  // the fourth attribute as rhs), then both again; every answer must
  // render exactly as a fresh solver's. The witness cache is off, so the
  // chase memo is the only state the long-lived solver carries over.
  SplitMix64 rng(7);
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C", "D"}}});
  Budget budget = SixteenthBudget();
  SolveOptions options;
  options.use_witness_cache = false;
  std::uint64_t replays = 0;
  for (std::size_t queries = 0; queries < 111; ++queries) {
    MixedMixQuery q = NextMixedMixQuery(scheme, rng);
    const Fd& fd = q.target.fd();
    AttrId other = 0;
    while (other == fd.rhs[0] ||
           std::find(fd.lhs.begin(), fd.lhs.end(), other) != fd.lhs.end()) {
      ++other;
    }
    Dependency sibling(Fd{0, fd.lhs, {other}});
    std::vector<std::string> want;
    for (const Dependency& target : {q.target, sibling}) {
      ImplicationSolver fresh(scheme, q.sigma, options);
      want.push_back(Render(fresh.Solve(target, budget).value(), *scheme));
    }
    ImplicationSolver solver(scheme, q.sigma, options);
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(Render(solver.Solve(q.target, budget).value(), *scheme),
                want[0]);
      EXPECT_EQ(Render(solver.Solve(sibling, budget).value(), *scheme),
                want[1]);
    }
    replays += solver.chase_memo_stats().chase_replays;
  }
  EXPECT_GT(replays, 0u);
}

}  // namespace
}  // namespace ccfp
