// The MixedDerivation engine: sound forward chaining over Armstrong +
// IND1-3 + Propositions 4.1-4.3 — and its *provable* incompleteness on the
// Section 7 construction (the executable content of Theorem 7.1).
#include <gtest/gtest.h>

#include "chase/chase.h"
#include "constructions/section7.h"
#include "core/parser.h"
#include "core/satisfies.h"
#include "interact/derivation.h"
#include "util/rng.h"

namespace ccfp {
namespace {

class DerivationTest : public ::testing::Test {
 protected:
  SchemePtr scheme_ =
      MakeScheme({{"R", {"X", "Y", "Z"}}, {"S", {"T", "U", "V"}}});

  Dependency Dep(const std::string& text) {
    return ParseDependency(*scheme_, text).value();
  }
};

TEST_F(DerivationTest, DerivesHypothesesAndFdClosure) {
  MixedDerivation engine(scheme_, {Dep("R: X -> Y"), Dep("R: Y -> Z")});
  ASSERT_TRUE(engine.Saturate().ok());
  EXPECT_TRUE(engine.Derives(Dep("R: X -> Y")));
  EXPECT_TRUE(engine.Derives(Dep("R: X -> Z")));       // transitivity
  EXPECT_TRUE(engine.Derives(Dep("R: X, Z -> Y")));    // augmentation-ish
  EXPECT_FALSE(engine.Derives(Dep("R: Z -> X")));
}

TEST_F(DerivationTest, DerivesIndConsequences) {
  MixedDerivation engine(
      scheme_, {Dep("R[X, Y] <= S[T, U]"), Dep("S[T] <= S[V]")});
  ASSERT_TRUE(engine.Saturate().ok());
  EXPECT_TRUE(engine.Derives(Dep("R[X] <= S[T]")));  // IND2
  EXPECT_TRUE(engine.Derives(Dep("R[X] <= S[V]")));  // IND3
  EXPECT_FALSE(engine.Derives(Dep("S[T] <= R[X]")));
}

TEST_F(DerivationTest, DerivesProposition41Pullback) {
  MixedDerivation engine(
      scheme_, {Dep("R[X, Y] <= S[T, U]"), Dep("S: T -> U")});
  ASSERT_TRUE(engine.Saturate().ok());
  EXPECT_TRUE(engine.Derives(Dep("R: X -> Y")));
  EXPECT_FALSE(engine.Derives(Dep("R: Y -> X")));
  EXPECT_FALSE(engine.trace().empty());
}

TEST_F(DerivationTest, DerivesProposition42Collection) {
  MixedDerivation engine(scheme_,
                         {Dep("R[X, Y] <= S[T, U]"),
                          Dep("R[X, Z] <= S[T, V]"), Dep("S: T -> U")});
  ASSERT_TRUE(engine.Saturate().ok());
  EXPECT_TRUE(engine.Derives(Dep("R[X, Y, Z] <= S[T, U, V]")));
}

TEST_F(DerivationTest, DerivesProposition43Rd) {
  MixedDerivation engine(scheme_,
                         {Dep("R[X, Y] <= S[T, U]"),
                          Dep("R[X, Z] <= S[T, U]"), Dep("S: T -> U")});
  ASSERT_TRUE(engine.Saturate().ok());
  EXPECT_TRUE(engine.Derives(Dep("R[Y = Z]")));
  EXPECT_TRUE(engine.Derives(Dep("R[Z = Y]")));  // symmetric orientation
  EXPECT_TRUE(engine.Derives(Dep("R[X = X]")));  // trivial
  EXPECT_FALSE(engine.Derives(Dep("R[X = Y]")));
}

TEST_F(DerivationTest, NormalizationHandlesPermutedInds) {
  // The FD sits at non-prefix positions of the IND's rhs; the engine must
  // normalize via IND2 before applying the interaction rules.
  MixedDerivation engine(
      scheme_, {Dep("R[Z, X, Y] <= S[V, T, U]"), Dep("S: T -> U")});
  ASSERT_TRUE(engine.Saturate().ok());
  EXPECT_TRUE(engine.Derives(Dep("R: X -> Y")));
}

TEST_F(DerivationTest, ChainsInteractionsAcrossRounds) {
  // Pullback produces an FD on R; a second pullback through an IND into R
  // uses it. T -> U on S pulls back through Q[?, ?] <= R[?, ?]...
  SchemePtr scheme = MakeScheme({{"Q", {"E", "F"}},
                                 {"R", {"X", "Y"}},
                                 {"S", {"T", "U"}}});
  auto dep = [&](const std::string& text) {
    return ParseDependency(*scheme, text).value();
  };
  MixedDerivation engine(scheme, {dep("Q[E, F] <= R[X, Y]"),
                                  dep("R[X, Y] <= S[T, U]"),
                                  dep("S: T -> U")});
  ASSERT_TRUE(engine.Saturate().ok());
  EXPECT_TRUE(engine.Derives(dep("R: X -> Y")));  // round 1
  EXPECT_TRUE(engine.Derives(dep("Q: E -> F")));  // round 2 (via derived FD)
}

TEST_F(DerivationTest, SoundnessAgainstChaseOnDerivedFacts) {
  MixedDerivation engine(scheme_,
                         {Dep("R[X, Y] <= S[T, U]"),
                          Dep("R[X, Z] <= S[T, V]"), Dep("S: T -> U"),
                          Dep("S: U -> V")});
  ASSERT_TRUE(engine.Saturate().ok());
  std::vector<Fd> fds = {MakeFd(*scheme_, "S", {"T"}, {"U"}),
                         MakeFd(*scheme_, "S", {"U"}, {"V"})};
  std::vector<Ind> inds = {
      MakeInd(*scheme_, "R", {"X", "Y"}, "S", {"T", "U"}),
      MakeInd(*scheme_, "R", {"X", "Z"}, "S", {"T", "V"})};
  // Every interaction-rule conclusion in the trace must be chase-implied.
  for (const MixedDerivation::Step& step : engine.trace()) {
    Result<ChaseImplication> implied =
        ChaseImplies(scheme_, fds, inds, step.conclusion, Budget());
    ASSERT_TRUE(implied.ok()) << step.ToString(*scheme_);
    EXPECT_EQ(implied->verdict, ImplicationVerdict::kImplied)
        << "unsound: " << step.ToString(*scheme_);
  }
}

TEST_F(DerivationTest, IncompleteOnSection7ByTheorem71) {
  // Theorem 7.1 made concrete: the chase proves Sigma |= F: A -> C, but
  // this (or any) fixed finite rule arsenal cannot derive it. The Section 7
  // construction was engineered so that every bounded-antecedent rule
  // misses the global interaction.
  for (std::size_t n : {1u, 2u, 3u}) {
    Section7Construction c = MakeSection7(n);
    Result<ChaseImplication> chase_implied =
        ChaseImplies(c.scheme, c.fds, c.inds, Dependency(c.sigma), Budget());
    ASSERT_TRUE(chase_implied.ok());
    ASSERT_EQ(chase_implied->verdict, ImplicationVerdict::kImplied);

    MixedDerivation engine(c.scheme, c.SigmaDeps());
    ASSERT_TRUE(engine.Saturate().ok());
    EXPECT_FALSE(engine.Derives(Dependency(c.sigma)))
        << "n = " << n
        << ": the finite arsenal unexpectedly derived sigma — Theorem 7.1 "
           "says a derivation must use unboundedly many premises";
  }
}

TEST_F(DerivationTest, ArsenalReachesExactlyPhiMinusSigmaOnSection7) {
  // Lemma 7.3's mechanics: every member of phi EXCEPT sigma = F: A -> C
  // follows by chained Proposition 4.1 pullbacks (e.g. H_n: B -> C from
  // gamma_n and eps_n; then H_n: B -> D with theta_n; then F: B -> C
  // through beta_n). Only sigma itself needs the unbounded global argument
  // — exactly the boundary Theorem 7.1 draws.
  for (std::size_t n : {1u, 2u}) {
    Section7Construction c = MakeSection7(n);
    MixedDerivation engine(c.scheme, c.SigmaDeps());
    ASSERT_TRUE(engine.Saturate().ok());
    for (const Fd& fd : c.phi) {
      if (fd == c.sigma) {
        EXPECT_FALSE(engine.Derives(Dependency(fd)))
            << "n = " << n << ": " << Dependency(fd).ToString(*c.scheme);
      } else {
        EXPECT_TRUE(engine.Derives(Dependency(fd)))
            << "n = " << n << ": " << Dependency(fd).ToString(*c.scheme);
      }
    }
  }
}

TEST_F(DerivationTest, RejectsEmvdHypotheses) {
  MixedDerivation engine(scheme_, {Dep("R: X ->> Y | Z")});
  Status status = engine.Saturate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
}

TEST_F(DerivationTest, TraceStepsAreWellFormed) {
  MixedDerivation engine(
      scheme_, {Dep("R[X, Y] <= S[T, U]"), Dep("S: T -> U")});
  ASSERT_TRUE(engine.Saturate().ok());
  for (const MixedDerivation::Step& step : engine.trace()) {
    EXPECT_TRUE(Validate(*scheme_, step.conclusion).ok());
    EXPECT_FALSE(step.rule.empty());
    EXPECT_FALSE(step.ToString(*scheme_).empty());
  }
}

}  // namespace
}  // namespace ccfp
