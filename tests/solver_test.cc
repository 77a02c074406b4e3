// Unit coverage for the ImplicationSolver façade: one Solve() front door
// across all five fragments (pure-FD, pure-IND, unary special case,
// mixed-derivable, mixed-undecidable), three-valued Verdicts with
// checkable evidence, and the de-CHECKed budget behavior (exhaustion is a
// Status / kUnknown, never an abort).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "chase/chase.h"
#include "constructions/section7.h"
#include "constructions/theorem44.h"
#include "core/parser.h"
#include "core/satisfies.h"
#include "fd/closure.h"
#include "ind/implication.h"
#include "search/bounded.h"
#include "search/portfolio.h"
#include "solve/solver.h"
#include "util/fault.h"

namespace ccfp {
namespace {

Verdict MustSolve(ImplicationSolver& solver, const Dependency& target,
                  const Budget& budget = Budget()) {
  Result<Verdict> v = solver.Solve(target, budget);
  EXPECT_TRUE(v.ok()) << v.status();
  return v.MoveValue();
}

/// Every attached counterexample must be genuine: satisfies sigma,
/// violates the target — re-checked here with the independent legacy
/// model checker, not the solver's own workspace.
void ExpectGenuineCounterexample(const Verdict& v,
                                 const std::vector<Dependency>& sigma,
                                 const Dependency& target,
                                 const DatabaseScheme& scheme) {
  ASSERT_TRUE(v.counterexample.has_value());
  EXPECT_TRUE(v.counterexample_verified);
  SatisfiesOptions legacy{SatisfiesEngine::kLegacy};
  for (const Dependency& dep : sigma) {
    if (IsTrivial(scheme, dep)) continue;
    EXPECT_TRUE(Satisfies(*v.counterexample, dep, legacy))
        << dep.ToString(scheme);
  }
  EXPECT_FALSE(Satisfies(*v.counterexample, target, legacy))
      << target.ToString(scheme);
}

// --- Fragment routing ---------------------------------------------------

TEST(SolverClassifyTest, RoutesAllFiveFragments) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}},
                                 {"S", {"D", "E", "F"}}});
  auto dep = [&](const char* text) {
    return ParseDependency(*scheme, text).value();
  };
  std::vector<Dependency> pure_fd = {dep("R: A -> B")};
  std::vector<Dependency> pure_ind = {dep("R[A, B] <= S[D, E]")};
  std::vector<Dependency> unary = {dep("R: A -> B"), dep("R[A] <= S[D]")};
  std::vector<Dependency> mixed = {dep("R: A -> B"),
                                   dep("R[A, B] <= S[D, E]")};

  EXPECT_EQ(ClassifyImplicationFragment(*scheme, pure_fd, dep("R: A -> C")),
            ImplicationFragment::kPureFd);
  EXPECT_EQ(
      ClassifyImplicationFragment(*scheme, pure_ind, dep("R[A] <= S[D]")),
      ImplicationFragment::kPureInd);
  EXPECT_EQ(ClassifyImplicationFragment(*scheme, unary, dep("R: B -> A")),
            ImplicationFragment::kUnary);
  EXPECT_EQ(ClassifyImplicationFragment(*scheme, mixed, dep("R: A -> C")),
            ImplicationFragment::kMixed);
  EXPECT_EQ(ClassifyImplicationFragment(*scheme, mixed,
                                        dep("R: A ->> B | C")),
            ImplicationFragment::kUnsupported);
  // Non-unary target over a unary sigma is mixed, not unary.
  EXPECT_EQ(ClassifyImplicationFragment(*scheme, unary, dep("R: A, B -> C")),
            ImplicationFragment::kMixed);
}

// --- Pure FD ------------------------------------------------------------

TEST(SolverTest, PureFdImpliedWithClosureEvidence) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  ImplicationSolver solver(
      scheme, ParseDependencies(*scheme, "R: A -> B\nR: B -> C").value());
  Verdict v = MustSolve(solver, MakeFd(*scheme, "R", {"A"}, {"C"}));
  EXPECT_EQ(v.outcome, ImplicationVerdict::kImplied);
  EXPECT_EQ(v.fragment, ImplicationFragment::kPureFd);
  // Closure evidence: A+ = {A, B, C}, and the closure must re-check
  // against the standalone closure engine.
  EXPECT_EQ(v.fd_closure,
            AttributeClosure(*scheme, 0,
                             {MakeFd(*scheme, "R", {"A"}, {"B"}),
                              MakeFd(*scheme, "R", {"B"}, {"C"})},
                             {0}));
}

TEST(SolverTest, PureFdNotImpliedWithVerifiedCounterexample) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Dependency> sigma =
      ParseDependencies(*scheme, "R: A -> B").value();
  ImplicationSolver solver(scheme, sigma);
  Dependency target(MakeFd(*scheme, "R", {"A"}, {"C"}));
  Verdict v = MustSolve(solver, target);
  EXPECT_EQ(v.outcome, ImplicationVerdict::kNotImplied);
  ExpectGenuineCounterexample(v, sigma, target, *scheme);
}

// --- Pure IND -----------------------------------------------------------

TEST(SolverTest, PureIndImpliedWithCheckedProof) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}},
                                 {"S", {"C", "D"}},
                                 {"T", {"E", "F"}}});
  std::vector<Dependency> sigma =
      ParseDependencies(*scheme, "R[A, B] <= S[C, D]\nS[C] <= T[E]")
          .value();
  ImplicationSolver solver(scheme, sigma);
  Verdict v =
      MustSolve(solver, MakeInd(*scheme, "R", {"A"}, "T", {"E"}));
  EXPECT_EQ(v.outcome, ImplicationVerdict::kImplied);
  EXPECT_EQ(v.fragment, ImplicationFragment::kPureInd);
  // Proof evidence, already Check()ed by the rule system inside Decide;
  // re-check here for good measure.
  ASSERT_TRUE(v.ind_proof.has_value());
  EXPECT_TRUE(v.ind_proof->Check().ok());
  EXPECT_GE(v.ind_chain.size(), 2u);
}

TEST(SolverTest, PureIndNotImpliedWithRuleStarCounterexample) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Dependency> sigma =
      ParseDependencies(*scheme, "R[A] <= S[C]").value();
  ImplicationSolver solver(scheme, sigma);
  Dependency target(MakeInd(*scheme, "S", {"C"}, "R", {"A"}));
  Verdict v = MustSolve(solver, target);
  EXPECT_EQ(v.outcome, ImplicationVerdict::kNotImplied);
  ExpectGenuineCounterexample(v, sigma, target, *scheme);
}

TEST(SolverTest, PureIndSpecialCaseEnginesWhenNoProofWanted) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"A", "B"}}});
  SolveOptions options;
  options.want_proof = false;
  options.want_counterexample = false;
  // Unary sigma: the width-1 query routes to digraph reachability.
  {
    ImplicationSolver solver(
        scheme, ParseDependencies(*scheme, "R[A] <= S[A]").value(),
        options);
    Verdict v =
        MustSolve(solver, MakeInd(*scheme, "R", {"A"}, "S", {"A"}));
    EXPECT_EQ(v.outcome, ImplicationVerdict::kImplied);
    EXPECT_NE(v.engine.find("unary-ind-graph"), std::string::npos);
  }
  // Typed sigma + target: per-name-set reachability.
  {
    ImplicationSolver solver(
        scheme,
        ParseDependencies(*scheme, "R[A, B] <= S[A, B]").value(), options);
    Verdict v = MustSolve(
        solver, MakeInd(*scheme, "R", {"A", "B"}, "S", {"A", "B"}));
    EXPECT_EQ(v.outcome, ImplicationVerdict::kImplied);
    EXPECT_NE(v.engine.find("typed"), std::string::npos);
  }
}

// --- Unary fragment (Theorem 4.4 both ways) -----------------------------

TEST(SolverTest, UnarySemanticsSplitOnTheorem44Gadget) {
  Theorem44Gadget g = MakeTheorem44Gadget();
  std::vector<Dependency> sigma = {Dependency(g.fd), Dependency(g.ind)};
  for (const Dependency& target :
       {Dependency(g.ind_conclusion), Dependency(g.fd_conclusion)}) {
    SolveOptions finite;
    finite.semantics = ImplicationSemantics::kFinite;
    Verdict vf =
        SolveImplication(g.scheme, sigma, target, Budget(), finite).value();
    Verdict vu = SolveImplication(g.scheme, sigma, target).value();
    EXPECT_EQ(vf.fragment, ImplicationFragment::kUnary);
    EXPECT_EQ(vf.outcome, ImplicationVerdict::kImplied)
        << target.ToString(*g.scheme);
    EXPECT_EQ(vu.outcome, ImplicationVerdict::kNotImplied)
        << target.ToString(*g.scheme);
    // Finitely implied: no finite counterexample can exist, and the
    // solver must say so instead of attaching one.
    EXPECT_FALSE(vu.counterexample.has_value());
  }
}

TEST(SolverTest, UnaryUnrestrictedCounterexampleWhenFiniteAlsoFails) {
  // The IND keeps sigma out of the pure-FD fragment, but everything stays
  // unary; neither |= nor |=fin gives R: B -> A, so a finite witness
  // exists and the best-effort search must find and verify one.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Dependency> sigma =
      ParseDependencies(*scheme, "R: A -> B\nS[C] <= S[D]").value();
  ImplicationSolver solver(scheme, sigma);
  Dependency target(MakeFd(*scheme, "R", {"B"}, {"A"}));
  Verdict v = MustSolve(solver, target);
  EXPECT_EQ(v.fragment, ImplicationFragment::kUnary);
  EXPECT_EQ(v.outcome, ImplicationVerdict::kNotImplied);
  // |=fin fails too, so a finite witness exists and the search is small.
  ExpectGenuineCounterexample(v, sigma, target, *scheme);
}

// --- Mixed fragment -----------------------------------------------------

TEST(SolverTest, MixedDerivableViaSoundRules) {
  // The Proposition 4.1 pullback: derivable without any chase.
  SchemePtr scheme = MakeScheme({{"R", {"X", "Y"}}, {"S", {"T", "U"}}});
  std::vector<Dependency> sigma =
      ParseDependencies(*scheme, "R[X, Y] <= S[T, U]\nS: T -> U").value();
  ImplicationSolver solver(scheme, sigma);
  Verdict v = MustSolve(solver, MakeFd(*scheme, "R", {"X"}, {"Y"}));
  EXPECT_EQ(v.fragment, ImplicationFragment::kMixed);
  EXPECT_EQ(v.outcome, ImplicationVerdict::kImplied);
  EXPECT_NE(v.engine.find("derivation"), std::string::npos);
  EXPECT_FALSE(v.derivation_trace.empty());
}

TEST(SolverTest, MixedChaseProofBeyondTheRuleArsenal) {
  // The Section 7 gap witness: phi is chase-derivable from Sigma but NOT
  // derivable by the k-ary sound rules (Theorem 7.1 made concrete), so
  // the pipeline must fall through derivation to the chase stage.
  Section7Construction c = MakeSection7(2);
  ImplicationSolver solver(c.scheme, c.SigmaDeps());
  Verdict v = MustSolve(solver, Dependency(c.sigma));
  EXPECT_EQ(v.fragment, ImplicationFragment::kMixed);
  EXPECT_EQ(v.outcome, ImplicationVerdict::kImplied);
  EXPECT_NE(v.engine.find("chase"), std::string::npos) << v.engine;
  ASSERT_TRUE(v.chase_stats.has_value());
  // The derivation stage must have run (and failed) first.
  ASSERT_GE(v.stages.size(), 2u);
  EXPECT_EQ(v.stages[0].stage, "derivation");
  EXPECT_EQ(v.stages[0].verdict, ImplicationVerdict::kUnknown);
}

TEST(SolverTest, MixedNotImpliedChaseFixpointIsTheCounterexample) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Dependency> sigma =
      ParseDependencies(*scheme, "R: A -> B\nR[A, B] <= S[C, D]").value();
  ImplicationSolver solver(scheme, sigma);
  Dependency target(MakeFd(*scheme, "S", {"C"}, {"D"}));
  Verdict v = MustSolve(solver, target);
  EXPECT_EQ(v.fragment, ImplicationFragment::kMixed);
  EXPECT_EQ(v.outcome, ImplicationVerdict::kNotImplied);
  ExpectGenuineCounterexample(v, sigma, target, *scheme);
  // R[A, B] <= S[C, D] fills every column of S, so it creates no nulls:
  // the INDs are weakly acyclic and the chase, which terminates, runs
  // straight after the derivation stage and decides.
  EXPECT_EQ(v.engine, "workspace-chase (universal model)");
  ASSERT_EQ(v.stages.size(), 2u) << v.ToString(*scheme);
  EXPECT_EQ(v.stages[0].stage, "derivation");
  EXPECT_EQ(v.stages[1].stage, "chase");
}

TEST(SolverTest, ChaseRefutationDecidesOnlyOnceVerified) {
  // With the witness cache and counterexample attachment both off, the
  // chase's refuting fixpoint must still pass the watcher check before it
  // decides: the chase stage's note records the verification.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Dependency> sigma =
      ParseDependencies(*scheme, "R[A, B] <= S[C, D]\nS: C -> D").value();
  SolveOptions options;
  options.use_witness_cache = false;
  options.want_counterexample = false;
  ImplicationSolver solver(scheme, sigma, options);
  Verdict v = MustSolve(solver, Dependency(MakeFd(*scheme, "R", {"B"}, {"A"})));
  EXPECT_EQ(v.fragment, ImplicationFragment::kMixed);
  EXPECT_EQ(v.outcome, ImplicationVerdict::kNotImplied);
  EXPECT_EQ(v.engine, "workspace-chase (universal model)");
  EXPECT_FALSE(v.counterexample.has_value());
  ASSERT_EQ(v.stages.size(), 2u) << v.ToString(*scheme);
  const StageReport& chase = v.stages[1];
  EXPECT_EQ(chase.stage, "chase");
  EXPECT_EQ(chase.verdict, ImplicationVerdict::kNotImplied);
  EXPECT_NE(chase.note.find("fixpoint"), std::string::npos) << chase.note;
  EXPECT_NE(chase.note.find("verified"), std::string::npos) << chase.note;
}

TEST(SolverTest, MixedUndecidableReturnsStructuredUnknown) {
  // Cyclic INDs + an FD, with a target none of the stages can decide
  // under a tiny budget: the chase diverges, the bounded search finds no
  // counterexample. The verdict must be a *structured* kUnknown — reason
  // text plus one report per stage with its budget use.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Dependency> sigma =
      ParseDependencies(*scheme,
                        "R: A -> B\nR[B, C] <= R[A, B]\nR[A] <= R[C]")
          .value();
  ImplicationSolver solver(scheme, sigma);
  Dependency target(MakeFd(*scheme, "R", {"C"}, {"B"}));
  Budget tiny = Budget::Tiny();
  Verdict v = MustSolve(solver, target, tiny);
  EXPECT_EQ(v.fragment, ImplicationFragment::kMixed);
  EXPECT_EQ(v.outcome, ImplicationVerdict::kUnknown);
  EXPECT_FALSE(v.reason.empty());
  // The INDs are not weakly acyclic, so the cheap ladder prefix (only
  // rung 0 under this budget) sweeps before the chase and the rest of the
  // ladder after it.
  ASSERT_GE(v.stages.size(), 4u);
  EXPECT_EQ(v.stages[0].stage, "derivation");
  EXPECT_EQ(v.stages[1].stage, "search");
  EXPECT_EQ(v.stages[2].stage, "chase");
  EXPECT_EQ(v.stages[3].stage, "search");
  // The chase stage must report its (exhausted) step consumption.
  EXPECT_GT(v.stages[2].used.steps, 0u);
}

TEST(SolverTest, MixedUnknownReasonNamesTheSpecialEdgeCycle) {
  // Same query: the kUnknown reason says why the chase may never answer.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Dependency> sigma =
      ParseDependencies(*scheme,
                        "R: A -> B\nR[B, C] <= R[A, B]\nR[A] <= R[C]")
          .value();
  ImplicationSolver solver(scheme, sigma);
  Verdict v = MustSolve(solver, Dependency(MakeFd(*scheme, "R", {"C"}, {"B"})),
                        Budget::Tiny());
  ASSERT_EQ(v.outcome, ImplicationVerdict::kUnknown);
  EXPECT_NE(v.reason.find("special-edge cycle R.B => R.C -> R.B"),
            std::string::npos)
      << v.reason;
}

/// The perfbench mixed_solve template (perfbench/src/workloads.cc). Its
/// R/S half feeds itself through R[B, C] <= R[C, A], so the chase from
/// many R/S targets' seeds never reaches a fixpoint and spends its whole
/// share of the budget.
struct RsCycle {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}},
                                 {"S", {"D", "E", "F"}},
                                 {"T", {"G", "H", "I", "J"}},
                                 {"U", {"K", "L", "M"}}});
  std::vector<Dependency> sigma = ParseDependencies(*scheme,
                                                    "R: A -> B\n"
                                                    "R[B, C] <= R[C, A]\n"
                                                    "S: D -> E\n"
                                                    "R[A, B] <= S[D, E]\n"
                                                    "S[E, F] <= R[A, C]\n"
                                                    "T: G -> H\n"
                                                    "T[G, H] <= U[K, L]\n"
                                                    "U: K -> M\n"
                                                    "T[I, J] <= U[L, M]\n"
                                                    "U: L, M -> K\n")
                                      .value();

  Dependency Target(const char* text) const {
    return ParseDependency(*scheme, text).value();
  }
};

TEST(SolverTest, DivergentChaseStagesDoExactlyTheRecordedWork) {
  RsCycle rs;
  struct Case {
    const char* target;
    std::uint64_t steps;
    std::uint64_t tuples;
  };
  // Every rule firing of the chase is pinned: a faster kernel must spend
  // exactly these counters, as the node-based indexes did. Each run stops
  // at the share's tuple ceiling (1 or 2 seed tuples plus the IND tuples
  // pass 87,381), and its note says so.
  const Case cases[] = {{"R: B -> C", 97865, 87380},
                        {"S: E -> F", 96473, 87380},
                        {"R[C, B] <= R[B, C]", 101229, 87381}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.target);
    ImplicationSolver solver(rs.scheme, rs.sigma);
    Verdict v = MustSolve(solver, rs.Target(c.target));
    EXPECT_EQ(v.outcome, ImplicationVerdict::kUnknown);
    int chase_stages = 0;
    for (const StageReport& stage : v.stages) {
      if (stage.stage != "chase") continue;
      ++chase_stages;
      EXPECT_EQ(stage.used.steps, c.steps);
      EXPECT_EQ(stage.used.tuples, c.tuples);
      EXPECT_NE(stage.note.find("chase tuple ceiling exceeded"),
                std::string::npos)
          << stage.note;
    }
    EXPECT_EQ(chase_stages, 1);
  }
}

// --- The chase memo -------------------------------------------------------

/// The full observable answer: the rendered verdict (outcome, route,
/// engine, reason, every stage with its budget use) and the counterexample.
std::string Render(const Verdict& v, const DatabaseScheme& scheme) {
  std::string s = v.ToString(scheme);
  if (v.counterexample.has_value()) {
    s += "\n--counterexample--\n" + v.counterexample->ToString();
  }
  return s;
}

/// What a solver that has never chased anything answers.
std::string FreshRender(const SchemePtr& scheme,
                        const std::vector<Dependency>& sigma,
                        const Dependency& target, const Budget& budget,
                        const SolveOptions& options = {}) {
  ImplicationSolver fresh(scheme, sigma, options);
  return Render(MustSolve(fresh, target, budget), *scheme);
}

/// 1/16 of the default budget: the divergent chases stop at 5,461 tuples.
Budget SixteenthBudget() {
  Budget budget;
  budget.steps /= 16;
  budget.tuples /= 16;
  return budget;
}

TEST(SolverChaseMemoTest, SameSeedTargetsReplayTheFirstRun) {
  RsCycle rs;
  Budget budget = SixteenthBudget();
  // Both IND targets chase the same one-tuple R seed.
  Dependency first = rs.Target("R[C, B] <= R[B, C]");
  Dependency sibling = rs.Target("R[C, B] <= R[C, A]");
  ImplicationSolver solver(rs.scheme, rs.sigma);
  for (const Dependency& target : {first, sibling, first}) {
    SCOPED_TRACE(target.ToString(*rs.scheme));
    Verdict v = MustSolve(solver, target, budget);
    EXPECT_TRUE(v.unknown());
    EXPECT_EQ(Render(v, *rs.scheme),
              FreshRender(rs.scheme, rs.sigma, target, budget));
  }
  EXPECT_EQ(solver.chase_memo_stats().chase_runs, 1u);
  EXPECT_EQ(solver.chase_memo_stats().chase_replays, 2u);
}

TEST(SolverChaseMemoTest, ASmallerShareChasesAgain) {
  RsCycle rs;
  Budget budget = SixteenthBudget();
  Budget half = budget;
  half.steps /= 2;
  half.tuples /= 2;
  Dependency target = rs.Target("R: B -> C");
  ImplicationSolver solver(rs.scheme, rs.sigma);
  MustSolve(solver, target, budget);
  Verdict v = MustSolve(solver, target, half);
  EXPECT_EQ(Render(v, *rs.scheme),
            FreshRender(rs.scheme, rs.sigma, target, half));
  EXPECT_EQ(solver.chase_memo_stats().chase_runs, 2u);
  EXPECT_EQ(solver.chase_memo_stats().chase_replays, 0u);
}

TEST(SolverChaseMemoTest, ADeadlineShareIsNeverAdmitted) {
  RsCycle rs;
  Budget budget = SixteenthBudget();
  budget.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  Dependency target = rs.Target("S: E -> F");
  ImplicationSolver solver(rs.scheme, rs.sigma);
  for (int round = 0; round < 2; ++round) {
    Verdict v = MustSolve(solver, target, budget);
    EXPECT_EQ(Render(v, *rs.scheme),
              FreshRender(rs.scheme, rs.sigma, target, budget));
  }
  EXPECT_EQ(solver.chase_memo_stats().chase_runs, 2u);
  EXPECT_EQ(solver.chase_memo_stats().chase_replays, 0u);
}

TEST(SolverChaseMemoTest, AFaultedRunIsNeverAdmitted) {
  RsCycle rs;
  Budget budget = SixteenthBudget();
  Dependency target = rs.Target("R[C, B] <= R[B, C]");
  ImplicationSolver solver(rs.scheme, rs.sigma);
  {
    // The chase is the only engine that probes kEngineExhaust, so the
    // fault stops it after 100 checkpoints, far below either ceiling.
    FaultInjector fi(19);
    fi.Arm(FaultSite::kEngineExhaust, 100);
    ScopedFaultInjector scope(&fi);
    Verdict v = MustSolve(solver, target, budget);
    std::string rendered = v.ToString(*rs.scheme);
    EXPECT_NE(rendered.find("injected chase exhaustion"), std::string::npos)
        << rendered;
  }
  std::string want = FreshRender(rs.scheme, rs.sigma, target, budget);
  EXPECT_EQ(want.find("injected"), std::string::npos);
  // The faulted run was not admitted: the next query chases for real, and
  // that run is the one the memo keeps.
  for (int round = 0; round < 2; ++round) {
    Verdict v = MustSolve(solver, target, budget);
    EXPECT_EQ(Render(v, *rs.scheme), want);
  }
  EXPECT_EQ(solver.chase_memo_stats().chase_runs, 2u);
  EXPECT_EQ(solver.chase_memo_stats().chase_replays, 1u);
}

TEST(SolverChaseMemoTest, EqualKeysMeanEqualSeeds) {
  // Every FD, IND and RD target over R(A, B, C), S(D, E). The memo keys a
  // run by the seed relation, whether the seed is the two-tuple FD seed,
  // and the FD's lhs as a set; targets with equal keys must have equal
  // canonical seeds. Sigma diverges from every seed, so each chase stage
  // reached stops at a counter ceiling, and the solver must chase exactly
  // once per distinct key.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}, {"S", {"D", "E"}}});
  std::vector<Dependency> sigma = {
      Dependency(Fd{0, {0}, {1}}), Dependency(Ind{0, {1}, 0, {0}}),
      Dependency(Ind{1, {1}, 1, {0}}), Dependency(Ind{0, {0, 1}, 1, {0, 1}})};
  std::vector<Dependency> targets;
  for (RelId rel = 0; rel < 2; ++rel) {
    AttrId arity = static_cast<AttrId>(scheme->relation(rel).arity());
    for (AttrId a = 0; a < arity; ++a) {
      for (AttrId b = 0; b < arity; ++b) {
        if (a == b) continue;
        targets.push_back(Dependency(Rd{rel, {a}, {b}}));
        for (AttrId y = 0; y < arity; ++y) {
          if (y == a || y == b) continue;
          // Both orders of a two-attribute lhs: the seed reads it as a set.
          targets.push_back(Dependency(Fd{rel, {a, b}, {y}}));
        }
      }
      for (AttrId y = 0; y < arity; ++y) {
        if (y == a) continue;
        targets.push_back(Dependency(Fd{rel, {a}, {y}}));
      }
      targets.push_back(Dependency(Fd{rel, {}, {a}}));
    }
  }
  for (RelId r1 = 0; r1 < 2; ++r1) {
    for (RelId r2 = 0; r2 < 2; ++r2) {
      AttrId n1 = static_cast<AttrId>(scheme->relation(r1).arity());
      AttrId n2 = static_cast<AttrId>(scheme->relation(r2).arity());
      for (AttrId a = 0; a < n1; ++a) {
        for (AttrId c = 0; c < n2; ++c) {
          targets.push_back(Dependency(Ind{r1, {a}, r2, {c}}));
          for (AttrId b = 0; b < n1; ++b) {
            for (AttrId d = 0; d < n2; ++d) {
              if (a == b || c == d) continue;
              targets.push_back(Dependency(Ind{r1, {a, b}, r2, {c, d}}));
            }
          }
        }
      }
    }
  }

  using Key = std::tuple<RelId, bool, std::vector<AttrId>>;
  auto key_of = [](const Dependency& t) {
    if (t.is_fd()) {
      std::vector<AttrId> lhs = t.fd().lhs;
      std::sort(lhs.begin(), lhs.end());
      return Key{t.fd().rel, true, lhs};
    }
    return Key{t.is_ind() ? t.ind().lhs_rel : t.rd().rel, false, {}};
  };
  std::map<Key, Database> seeds;
  for (const Dependency& t : targets) {
    Database seed = MakeCanonicalSeed(scheme, t).value();
    auto [it, inserted] = seeds.emplace(key_of(t), seed);
    if (!inserted) {
      EXPECT_TRUE(it->second == seed) << t.ToString(*scheme);
    }
  }

  // One step and one tuple per stage share: every chase stops at its
  // first merge or IND tuple, and the search prefix is too starved to
  // refute most targets before the chase. Without the witness cache,
  // every target reaches the stages on its own.
  Budget budget;
  budget.steps = 3;
  budget.tuples = 3;
  SolveOptions cacheless;
  cacheless.use_witness_cache = false;
  ImplicationSolver solver(scheme, sigma, cacheless);
  std::set<Key> chased;
  std::size_t reached = 0;
  for (const Dependency& t : targets) {
    if (IsTrivial(*scheme, t)) continue;
    SCOPED_TRACE(t.ToString(*scheme));
    Verdict v = MustSolve(solver, t, budget);
    EXPECT_EQ(Render(v, *scheme),
              FreshRender(scheme, sigma, t, budget, cacheless));
    for (const StageReport& stage : v.stages) {
      if (stage.stage != "chase") continue;
      ++reached;
      chased.insert(key_of(t));
      EXPECT_TRUE(stage.note.find("chase tuple ceiling exceeded") !=
                      std::string::npos ||
                  stage.note.find("chase step budget exhausted") !=
                      std::string::npos)
          << stage.note;
    }
  }
  EXPECT_GT(chased.size(), 6u);
  EXPECT_EQ(solver.chase_memo_stats().chase_runs, chased.size());
  EXPECT_EQ(solver.chase_memo_stats().chase_replays, reached - chased.size());
}

/// {A -> B, R[B, C] <= R[C, A]} over R(A, B, C) does not imply A -> C:
/// the chase from the target's seed diverges, and the smallest witness
/// needs three tuples.
struct WideSolve {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Dependency> sigma = {Dependency(Fd{0, {0}, {1}}),
                                   Dependency(Ind{0, {1, 2}, 0, {2, 0}})};
  Dependency target{Fd{0, {0}, {2}}};
};

TEST(SolverTest, WideSolveRefutesBeforeTheChase) {
  WideSolve w;
  ImplicationSolver solver(w.scheme, w.sigma);
  Budget budget;
  Verdict v = MustSolve(solver, w.target, budget);
  ASSERT_EQ(v.outcome, ImplicationVerdict::kNotImplied)
      << v.ToString(*w.scheme);
  EXPECT_EQ(v.engine, "bounded-search (id-space)");
  ExpectGenuineCounterexample(v, w.sigma, w.target, *w.scheme);
  EXPECT_EQ(v.counterexample->TotalTuples(), 3u);
  for (const StageReport& r : v.stages) {
    EXPECT_NE(r.stage, "chase") << v.ToString(*w.scheme);
  }
  const StageReport& last = v.stages.back();
  EXPECT_EQ(last.note.rfind("counterexample found at 3 tuples/relation over "
                            "a 2-value domain", 0),
            0u)
      << v.ToString(*w.scheme);

  // The same witness one full sweep of the search share finds.
  PortfolioResult sweep =
      RefutationPortfolio(w.scheme, w.sigma, w.target)
          .Run(budget.Split(SolveOptions().mixed_stage_split))
          .value();
  ASSERT_TRUE(sweep.counterexample.has_value());
  EXPECT_TRUE(*sweep.counterexample == *v.counterexample);
  ASSERT_EQ(sweep.rungs.size() + 1, v.stages.size());  // + derivation
  for (std::size_t i = 0; i < sweep.rungs.size(); ++i) {
    EXPECT_EQ(v.stages[i + 1].used.steps, sweep.rungs[i].candidates_tested);
  }
}

TEST(SolverTest, ExhaustedChaseReportsWhatItConsumed) {
  // The cyclic INDs make the chase diverge, so it runs out of its step
  // share. Its stage report must carry the counters the interrupted run
  // actually accumulated, IND tuples included.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Dependency> sigma =
      ParseDependencies(*scheme,
                        "R: A -> B\nR[B, C] <= R[A, B]\nR[A] <= R[C]")
          .value();
  ImplicationSolver solver(scheme, sigma);
  Budget budget;
  budget.steps = 600;
  Verdict v = MustSolve(solver, Dependency(MakeFd(*scheme, "R", {"C"}, {"B"})),
                        budget);
  EXPECT_EQ(v.fragment, ImplicationFragment::kMixed);
  const StageReport* chase = nullptr;
  for (const StageReport& r : v.stages) {
    if (r.stage == "chase") chase = &r;
  }
  ASSERT_NE(chase, nullptr);
  EXPECT_EQ(chase->verdict, ImplicationVerdict::kUnknown);
  EXPECT_NE(chase->note.find("exhausted"), std::string::npos) << chase->note;
  EXPECT_GT(chase->used.tuples, 0u);
  EXPECT_LE(chase->used.tuples, chase->used.steps);
  EXPECT_LE(chase->used.steps, budget.steps);
}

TEST(SolverTest, SearchStageDecidesWithoutEvidenceAttachment) {
  // want_counterexample=false must not cost decisiveness: a search-found
  // refutation is still verified and still flips the verdict — only the
  // database attachment is skipped.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  SolveOptions options;
  options.want_counterexample = false;
  ImplicationSolver solver(scheme, {Dependency(Emvd{0, {0}, {1}, {2}})},
                           options);
  Verdict v = MustSolve(solver, Dependency(Fd{0, {0}, {1}}));
  EXPECT_EQ(v.fragment, ImplicationFragment::kUnsupported);
  EXPECT_EQ(v.outcome, ImplicationVerdict::kNotImplied);
  EXPECT_FALSE(v.counterexample.has_value());
}

TEST(SolverTest, WideQueryDecidesOnTheIdSpaceEngineAtRungZero) {
  // One arity-10 relation with 17 dependencies. Every counter is sized by
  // its own column set's key space, so the whole 2x2 base shape prices at
  // a few thousand table entries per dependency and fits. The cyclic IND
  // makes the chase diverge, so rung 0 decides, on the id-space engine.
  std::vector<std::string> attrs;
  for (char c = 'A'; c <= 'J'; ++c) attrs.push_back(std::string(1, c));
  SchemePtr scheme = MakeScheme({{"R", attrs}});
  std::vector<Dependency> sigma;
  for (AttrId a = 0; a + 1 < 10; ++a) {
    sigma.push_back(Dependency(Fd{0, {a}, {static_cast<AttrId>(a + 1)}}));
  }
  for (AttrId a = 0; a < 6; ++a) {
    sigma.push_back(Dependency(Fd{0, {static_cast<AttrId>(a + 2)}, {a}}));
  }
  sigma.push_back(Dependency(Ind{0, {0, 1}, 0, {1, 2}}));
  Dependency target(Fd{0, {9}, {0}});

  BoundedSearchOptions base;  // the solver's default 2x2 rung 0
  BoundedSearchEstimate estimate =
      EstimateBoundedSearch(*scheme, sigma, target, base);
  EXPECT_TRUE(estimate.id_space_feasible)
      << estimate.table_entries << " table entries";
  EXPECT_LT(estimate.table_bytes, 1u << 20);

  Budget budget;
  budget.tuples = 3072;
  Result<Verdict> v = SolveImplication(scheme, sigma, target, budget);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->fragment, ImplicationFragment::kMixed);
  ASSERT_EQ(v->outcome, ImplicationVerdict::kNotImplied) << v->ToString(*scheme);
  EXPECT_EQ(v->engine, "bounded-search (id-space)");
  const StageReport* rung0 = nullptr;
  for (const StageReport& r : v->stages) {
    if (r.stage == "search") {
      rung0 = &r;
      break;
    }
  }
  ASSERT_NE(rung0, nullptr) << v->ToString(*scheme);
  EXPECT_EQ(rung0->engine, "bounded-search (id-space)");
  EXPECT_EQ(rung0->verdict, ImplicationVerdict::kNotImplied);
  ExpectGenuineCounterexample(*v, sigma, target, *scheme);
}

// --- The evidence-carrying ChaseImplies overload ------------------------

TEST(SolverTest, ChaseImpliesBudgetOverloadCarriesEvidence) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Fd> fds = {MakeFd(*scheme, "S", {"C"}, {"D"})};
  std::vector<Ind> inds = {MakeInd(*scheme, "R", {"A", "B"}, "S", {"C", "D"})};
  // Implied: the Proposition 4.1 pullback, proved via the chase.
  Result<ChaseImplication> implied = ChaseImplies(
      scheme, fds, inds, Dependency(MakeFd(*scheme, "R", {"A"}, {"B"})),
      Budget());
  ASSERT_TRUE(implied.ok()) << implied.status();
  EXPECT_EQ(implied->verdict, ImplicationVerdict::kImplied);
  EXPECT_GT(implied->used.steps, 0u);
  // Not implied: the fixpoint must come back as a genuine, sigma-checked
  // counterexample.
  Dependency bogus(MakeFd(*scheme, "R", {"B"}, {"A"}));
  Result<ChaseImplication> refuted =
      ChaseImplies(scheme, fds, inds, bogus, Budget());
  ASSERT_TRUE(refuted.ok()) << refuted.status();
  EXPECT_EQ(refuted->verdict, ImplicationVerdict::kNotImplied);
  ASSERT_TRUE(refuted->counterexample.has_value());
  EXPECT_TRUE(refuted->exhausted.ok());
  SatisfiesOptions legacy{SatisfiesEngine::kLegacy};
  for (const Fd& fd : fds) {
    EXPECT_TRUE(Satisfies(*refuted->counterexample, Dependency(fd), legacy));
  }
  for (const Ind& ind : inds) {
    EXPECT_TRUE(
        Satisfies(*refuted->counterexample, Dependency(ind), legacy));
  }
  EXPECT_FALSE(Satisfies(*refuted->counterexample, bogus, legacy));
  // Exhaustion: cyclic INDs under a tiny budget are kUnknown, not an
  // error and not an abort.
  SchemePtr cyc = MakeScheme({{"T", {"X", "Y", "Z"}}});
  Result<ChaseImplication> unknown = ChaseImplies(
      cyc, {}, {MakeInd(*cyc, "T", {"X", "Y"}, "T", {"Y", "Z"})},
      Dependency(MakeFd(*cyc, "T", {"X"}, {"Y"})), Budget::Tiny());
  ASSERT_TRUE(unknown.ok()) << unknown.status();
  EXPECT_EQ(unknown->verdict, ImplicationVerdict::kUnknown);
  EXPECT_FALSE(unknown->counterexample.has_value());
  // An exhausted chase reports what it consumed, not its whole allowance:
  // the step budget runs out (one step past it) long before the default
  // tuple budget, and every generated tuple cost a step.
  Budget steps200;
  steps200.steps = 200;
  Result<ChaseImplication> exhausted = ChaseImplies(
      cyc, {}, {MakeInd(*cyc, "T", {"X", "Y"}, "T", {"Y", "Z"})},
      Dependency(MakeFd(*cyc, "T", {"X"}, {"Y"})), steps200);
  ASSERT_TRUE(exhausted.ok()) << exhausted.status();
  EXPECT_EQ(exhausted->verdict, ImplicationVerdict::kUnknown);
  EXPECT_EQ(exhausted->exhausted.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(exhausted->used.tuples, 0u);
  EXPECT_LE(exhausted->used.tuples, exhausted->used.steps);
  EXPECT_LE(exhausted->used.steps, 201u);
}

// --- Budgets ------------------------------------------------------------

TEST(SolverTest, BudgetSplitDividesCountersKeepsDeadline) {
  Budget b;
  b.steps = 90;
  b.tuples = 2;
  b.expressions = 7;
  b.deadline = std::chrono::steady_clock::now();
  Budget s = b.Split(3);
  EXPECT_EQ(s.steps, 30u);
  EXPECT_EQ(s.tuples, 1u);  // never splits to zero
  EXPECT_EQ(s.expressions, 2u);
  EXPECT_EQ(s.deadline, b.deadline);
  EXPECT_TRUE(s.Expired());
  EXPECT_FALSE(Budget().Expired());
}

TEST(SolverTest, DeadlineSkipsLaterStages) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  ImplicationSolver solver(
      scheme,
      ParseDependencies(*scheme, "R: A -> B\nS[C, D] <= R[A, B]").value());
  Budget expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  // Mixed-fragment query with the deadline already passed: the pipeline
  // must skip every stage and answer a structured kUnknown.
  Verdict v =
      MustSolve(solver, Dependency(MakeFd(*scheme, "R", {"B"}, {"A"})),
                expired);
  EXPECT_EQ(v.outcome, ImplicationVerdict::kUnknown);
  EXPECT_NE(v.reason.find("deadline"), std::string::npos) << v.reason;
}

TEST(SolverTest, InvalidInputsAreStatusesNotAborts) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}});
  // Invalid sigma member (unknown attribute id).
  ImplicationSolver bad_sigma(scheme, {Dependency(Fd{0, {7}, {1}})});
  Result<Verdict> v1 =
      bad_sigma.Solve(Dependency(MakeFd(*scheme, "R", {"A"}, {"B"})));
  EXPECT_FALSE(v1.ok());
  EXPECT_EQ(v1.status().code(), StatusCode::kInvalidArgument);
  // No witness cache is built over an invalid sigma: zero counters.
  EXPECT_EQ(bad_sigma.witness_cache_stats().probes, 0u);
  EXPECT_EQ(bad_sigma.witness_cache_stats().admitted, 0u);
  // Invalid target.
  ImplicationSolver ok_sigma(scheme, {});
  Result<Verdict> v2 = ok_sigma.Solve(Dependency(Fd{0, {0}, {9}}));
  EXPECT_FALSE(v2.ok());
}

// --- De-CHECKed legacy entry points ------------------------------------

TEST(SolverTest, IndImpliesReturnsStatusOnBudgetExhaustion) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Ind> sigma = {
      MakeInd(*scheme, "R", {"A", "B"}, "R", {"B", "A"}),
  };
  IndImplication engine(scheme, sigma);
  IndDecisionOptions options;
  options.max_expressions = 1;  // the swap cycle exhausts this at once
  Result<bool> implied = engine.Implies(
      MakeInd(*scheme, "R", {"A", "B"}, "R", {"C", "A"}), options);
  ASSERT_FALSE(implied.ok());
  EXPECT_EQ(implied.status().code(), StatusCode::kResourceExhausted);
}

TEST(SolverTest, HasBoundedCounterexampleReturnsStatusOnExhaustion) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Dependency> premises =
      ParseDependencies(*scheme, "R: A -> B").value();
  BoundedSearchOptions options;
  options.max_candidates = 1;  // stops the scan immediately
  options.max_tuples_per_relation = 2;
  Result<bool> found = HasBoundedCounterexample(
      scheme, premises, Dependency(MakeFd(*scheme, "R", {"A"}, {"C"})),
      options);
  ASSERT_FALSE(found.ok());
  EXPECT_EQ(found.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace ccfp
