#include <gtest/gtest.h>

#include "chase/chase.h"
#include "core/satisfies.h"
#include "interact/rules.h"
#include "interact/unary_finite.h"
#include "solve/solver.h"
#include "util/rng.h"

namespace ccfp {
namespace {

// --- Propositions 4.1-4.3 (rule appliers) -------------------------------

class InteractRulesTest : public ::testing::Test {
 protected:
  SchemePtr scheme_ =
      MakeScheme({{"R", {"X", "Y", "Z"}}, {"S", {"T", "U", "V"}}});
};

TEST_F(InteractRulesTest, PullbackLiteralForm) {
  // Proposition 4.1: {R[XY] <= S[TU], S: T -> U} |= R: X -> Y.
  Ind ind = MakeInd(*scheme_, "R", {"X", "Y"}, "S", {"T", "U"});
  Fd fd = MakeFd(*scheme_, "S", {"T"}, {"U"});
  Result<Fd> derived = ApplyPullback(*scheme_, ind, fd);
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_EQ(*derived, MakeFd(*scheme_, "R", {"X"}, {"Y"}));
}

TEST_F(InteractRulesTest, PullbackPositionGeneralized) {
  // IND R[Z,X] <= S[U,T] with FD S: T -> U gives R: X -> Z.
  Ind ind = MakeInd(*scheme_, "R", {"Z", "X"}, "S", {"U", "T"});
  Fd fd = MakeFd(*scheme_, "S", {"T"}, {"U"});
  Result<Fd> derived = ApplyPullback(*scheme_, ind, fd);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(*derived, MakeFd(*scheme_, "R", {"X"}, {"Z"}));
}

TEST_F(InteractRulesTest, PullbackRejectsUncoveredFd) {
  Ind ind = MakeInd(*scheme_, "R", {"X"}, "S", {"T"});
  Fd fd = MakeFd(*scheme_, "S", {"T"}, {"U"});  // U not in the IND rhs
  EXPECT_FALSE(ApplyPullback(*scheme_, ind, fd).ok());
}

TEST_F(InteractRulesTest, CollectionLiteralForm) {
  // Proposition 4.2: {R[XY] <= S[TU], R[XZ] <= S[TV], S: T -> U}
  //                  |= R[XYZ] <= S[TUV].
  Ind ind_xy = MakeInd(*scheme_, "R", {"X", "Y"}, "S", {"T", "U"});
  Ind ind_xz = MakeInd(*scheme_, "R", {"X", "Z"}, "S", {"T", "V"});
  Fd fd = MakeFd(*scheme_, "S", {"T"}, {"U"});
  Result<Ind> derived = ApplyCollection(*scheme_, ind_xy, ind_xz, fd);
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_EQ(*derived, MakeInd(*scheme_, "R", {"X", "Y", "Z"}, "S",
                              {"T", "U", "V"}));
}

TEST_F(InteractRulesTest, CollectionRejectsMismatchedPrefix) {
  Ind ind_xy = MakeInd(*scheme_, "R", {"X", "Y"}, "S", {"T", "U"});
  Ind ind_zz = MakeInd(*scheme_, "R", {"Y", "Z"}, "S", {"T", "V"});
  Fd fd = MakeFd(*scheme_, "S", {"T"}, {"U"});
  EXPECT_FALSE(ApplyCollection(*scheme_, ind_xy, ind_zz, fd).ok());
}

TEST_F(InteractRulesTest, CollectionRejectsOverlap) {
  // Z == Y would repeat an attribute in the conclusion.
  Ind ind_xy = MakeInd(*scheme_, "R", {"X", "Y"}, "S", {"T", "U"});
  Ind ind_xz = MakeInd(*scheme_, "R", {"X", "Y"}, "S", {"T", "V"});
  Fd fd = MakeFd(*scheme_, "S", {"T"}, {"U"});
  EXPECT_FALSE(ApplyCollection(*scheme_, ind_xy, ind_xz, fd).ok());
}

TEST_F(InteractRulesTest, DeriveRdProposition43) {
  Ind ind_xy = MakeInd(*scheme_, "R", {"X", "Y"}, "S", {"T", "U"});
  Ind ind_xz = MakeInd(*scheme_, "R", {"X", "Z"}, "S", {"T", "U"});
  Fd fd = MakeFd(*scheme_, "S", {"T"}, {"U"});
  Result<Rd> derived = DeriveRd(*scheme_, ind_xy, ind_xz, fd);
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_EQ(*derived, MakeRd(*scheme_, "R", {"Y"}, {"Z"}));
}

TEST_F(InteractRulesTest, DeriveRdRequiresSharedRhs) {
  Ind ind_xy = MakeInd(*scheme_, "R", {"X", "Y"}, "S", {"T", "U"});
  Ind ind_xz = MakeInd(*scheme_, "R", {"X", "Z"}, "S", {"T", "V"});
  Fd fd = MakeFd(*scheme_, "S", {"T"}, {"U"});
  EXPECT_FALSE(DeriveRd(*scheme_, ind_xy, ind_xz, fd).ok());
}

TEST_F(InteractRulesTest, SplitRdYieldsUnaryRds) {
  Rd rd = MakeRd(*scheme_, "R", {"X", "Y"}, {"Y", "Z"});
  std::vector<Rd> parts = SplitRd(rd);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], MakeRd(*scheme_, "R", {"X"}, {"Y"}));
  EXPECT_EQ(parts[1], MakeRd(*scheme_, "R", {"Y"}, {"Z"}));
}

// Soundness of the derived dependencies: every random database satisfying
// the premises satisfies the conclusion (parameterized property test).
class InteractSoundnessTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(InteractSoundnessTest, DerivedDependenciesHoldInRandomModels) {
  SchemePtr scheme =
      MakeScheme({{"R", {"X", "Y", "Z"}}, {"S", {"T", "U", "V"}}});
  Ind ind_xy = MakeInd(*scheme, "R", {"X", "Y"}, "S", {"T", "U"});
  Ind ind_xz = MakeInd(*scheme, "R", {"X", "Z"}, "S", {"T", "V"});
  Ind ind_xz_same = MakeInd(*scheme, "R", {"X", "Z"}, "S", {"T", "U"});
  Fd fd = MakeFd(*scheme, "S", {"T"}, {"U"});

  Fd pullback = ApplyPullback(*scheme, ind_xy, fd).value();
  Ind collection = ApplyCollection(*scheme, ind_xy, ind_xz, fd).value();
  Rd rd = DeriveRd(*scheme, ind_xy, ind_xz_same, fd).value();

  SplitMix64 rng(GetParam());
  int models_tested = 0;
  for (int attempt = 0; attempt < 400 && models_tested < 5; ++attempt) {
    Database db(scheme);
    int r_size = 1 + static_cast<int>(rng.Below(3));
    int s_size = 2 + static_cast<int>(rng.Below(5));
    for (int i = 0; i < r_size; ++i) {
      db.Insert(0, {Value::Int(static_cast<std::int64_t>(rng.Below(3))),
                    Value::Int(static_cast<std::int64_t>(rng.Below(3))),
                    Value::Int(static_cast<std::int64_t>(rng.Below(3)))});
    }
    for (int i = 0; i < s_size; ++i) {
      db.Insert(1, {Value::Int(static_cast<std::int64_t>(rng.Below(3))),
                    Value::Int(static_cast<std::int64_t>(rng.Below(3))),
                    Value::Int(static_cast<std::int64_t>(rng.Below(3)))});
    }
    // Premise sets for the three propositions.
    if (Satisfies(db, ind_xy) && Satisfies(db, fd)) {
      EXPECT_TRUE(Satisfies(db, pullback)) << "Prop 4.1 unsound";
      if (Satisfies(db, ind_xz)) {
        EXPECT_TRUE(Satisfies(db, collection)) << "Prop 4.2 unsound";
        ++models_tested;
      }
      if (Satisfies(db, ind_xz_same)) {
        EXPECT_TRUE(Satisfies(db, rd)) << "Prop 4.3 unsound";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InteractSoundnessTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- Unary finite implication (counting rules) ---------------------------

class UnaryFiniteTest : public ::testing::Test {
 protected:
  SchemePtr scheme_ = MakeScheme({{"R", {"A", "B"}}});
};

TEST_F(UnaryFiniteTest, Theorem44FiniteConsequences) {
  std::vector<Fd> fds = {MakeFd(*scheme_, "R", {"A"}, {"B"})};
  std::vector<Ind> inds = {MakeInd(*scheme_, "R", {"A"}, "R", {"B"})};
  UnaryFiniteImplication engine(scheme_, fds, inds);
  // Theorem 4.4(a): |=fin R[B] <= R[A].
  EXPECT_TRUE(engine.Implies(MakeInd(*scheme_, "R", {"B"}, "R", {"A"})));
  // Theorem 4.4(b): |=fin R: B -> A.
  EXPECT_TRUE(engine.Implies(MakeFd(*scheme_, "R", {"B"}, {"A"})));
}

TEST_F(UnaryFiniteTest, NoSpuriousConsequencesWithoutCycle) {
  // Without the IND, the FD alone implies nothing new.
  std::vector<Fd> fds = {MakeFd(*scheme_, "R", {"A"}, {"B"})};
  UnaryFiniteImplication engine(scheme_, fds, {});
  EXPECT_FALSE(engine.Implies(MakeFd(*scheme_, "R", {"B"}, {"A"})));
  EXPECT_FALSE(engine.Implies(MakeInd(*scheme_, "R", {"A"}, "R", {"B"})));
  EXPECT_TRUE(engine.Implies(MakeFd(*scheme_, "R", {"A"}, {"A"})));
}

TEST_F(UnaryFiniteTest, AcyclicMixtureStaysDirected) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Fd> fds = {MakeFd(*scheme, "R", {"A"}, {"B"})};
  std::vector<Ind> inds = {MakeInd(*scheme, "R", {"B"}, "S", {"C"})};
  UnaryFiniteImplication engine(scheme, fds, inds);
  EXPECT_TRUE(engine.Implies(MakeInd(*scheme, "R", {"B"}, "S", {"C"})));
  EXPECT_FALSE(engine.Implies(MakeInd(*scheme, "S", {"C"}, "R", {"B"})));
  EXPECT_FALSE(engine.Implies(MakeFd(*scheme, "R", {"B"}, {"A"})));
}

TEST_F(UnaryFiniteTest, SectionSixCycleReversesEverything) {
  // The Theorem 6.1 cycle for k = 2: R_i: A -> B, R_i[A] <= R_{i+1}[B].
  SchemePtr scheme = MakeScheme(
      {{"R0", {"A", "B"}}, {"R1", {"A", "B"}}, {"R2", {"A", "B"}}});
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  for (int i = 0; i < 3; ++i) {
    std::string ri = "R" + std::to_string(i);
    std::string rn = "R" + std::to_string((i + 1) % 3);
    fds.push_back(MakeFd(*scheme, ri, {"A"}, {"B"}));
    inds.push_back(MakeInd(*scheme, ri, {"A"}, rn, {"B"}));
  }
  UnaryFiniteImplication engine(scheme, fds, inds);
  // sigma_2 = R0[B] <= R2[A].
  EXPECT_TRUE(engine.Implies(MakeInd(*scheme, "R0", {"B"}, "R2", {"A"})));
  // All FDs reverse.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(engine.Implies(
        MakeFd(*scheme, "R" + std::to_string(i), {"B"}, {"A"})));
  }
  // All INDs reverse.
  EXPECT_TRUE(engine.Implies(MakeInd(*scheme, "R1", {"B"}, "R0", {"A"})));
}

TEST_F(UnaryFiniteTest, BrokenCycleImpliesNothingExtra) {
  // Drop one IND from the k = 2 cycle: no reversals any more.
  SchemePtr scheme = MakeScheme(
      {{"R0", {"A", "B"}}, {"R1", {"A", "B"}}, {"R2", {"A", "B"}}});
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  for (int i = 0; i < 3; ++i) {
    fds.push_back(MakeFd(*scheme, "R" + std::to_string(i), {"A"}, {"B"}));
  }
  inds.push_back(MakeInd(*scheme, "R0", {"A"}, "R1", {"B"}));
  inds.push_back(MakeInd(*scheme, "R1", {"A"}, "R2", {"B"}));
  // R2[A] <= R0[B] omitted.
  UnaryFiniteImplication engine(scheme, fds, inds);
  EXPECT_FALSE(engine.Implies(MakeInd(*scheme, "R0", {"B"}, "R2", {"A"})));
  EXPECT_FALSE(engine.Implies(MakeFd(*scheme, "R0", {"B"}, {"A"})));
  EXPECT_FALSE(engine.Implies(MakeInd(*scheme, "R1", {"B"}, "R0", {"A"})));
}

// Soundness of the finite engine against explicit finite models.
TEST_F(UnaryFiniteTest, FiniteConsequencesHoldInRandomFiniteModels) {
  std::vector<Fd> fds = {MakeFd(*scheme_, "R", {"A"}, {"B"})};
  std::vector<Ind> inds = {MakeInd(*scheme_, "R", {"A"}, "R", {"B"})};
  UnaryFiniteImplication engine(scheme_, fds, inds);
  std::vector<Dependency> consequences;
  for (const Fd& fd : engine.ClosureFds()) {
    consequences.push_back(Dependency(fd));
  }
  for (const Ind& ind : engine.ClosureInds()) {
    consequences.push_back(Dependency(ind));
  }

  SplitMix64 rng(5150);
  int models = 0;
  for (int attempt = 0; attempt < 3000 && models < 10; ++attempt) {
    Database db(scheme_);
    int size = 1 + static_cast<int>(rng.Below(4));
    for (int i = 0; i < size; ++i) {
      db.Insert(0, {Value::Int(static_cast<std::int64_t>(rng.Below(4))),
                    Value::Int(static_cast<std::int64_t>(rng.Below(4)))});
    }
    bool model = Satisfies(db, fds[0]) && Satisfies(db, inds[0]);
    if (!model) continue;
    ++models;
    for (const Dependency& dep : consequences) {
      EXPECT_TRUE(Satisfies(db, dep))
          << dep.ToString(*scheme_) << " violated by a finite model";
    }
  }
  EXPECT_GE(models, 5);
}

// --- Unary unrestricted implication (KCV non-interaction) -----------------

TEST_F(UnaryFiniteTest, UnrestrictedEngineRefusesCountingConsequences) {
  std::vector<Fd> fds = {MakeFd(*scheme_, "R", {"A"}, {"B"})};
  std::vector<Ind> inds = {MakeInd(*scheme_, "R", {"A"}, "R", {"B"})};
  UnaryUnrestrictedImplication engine(scheme_, fds, inds);
  EXPECT_FALSE(engine.Implies(MakeInd(*scheme_, "R", {"B"}, "R", {"A"})));
  EXPECT_FALSE(engine.Implies(MakeFd(*scheme_, "R", {"B"}, {"A"})));
  // Plain one-family consequences still work.
  EXPECT_TRUE(engine.Implies(MakeInd(*scheme_, "R", {"A"}, "R", {"B"})));
  EXPECT_TRUE(engine.Implies(MakeFd(*scheme_, "R", {"A"}, {"B"})));
}

// --- Finite vs unrestricted: one Solve per semantics --------------------

Verdict SolveUnder(ImplicationSemantics semantics, SchemePtr scheme,
                   const std::vector<Fd>& fds, const std::vector<Ind>& inds,
                   const Dependency& target) {
  std::vector<Dependency> sigma;
  for (const Fd& fd : fds) sigma.push_back(Dependency(fd));
  for (const Ind& ind : inds) sigma.push_back(Dependency(ind));
  SolveOptions options;
  options.semantics = semantics;
  return SolveImplication(std::move(scheme), std::move(sigma), target,
                          Budget(), options)
      .value();
}

TEST(FiniteVsUnrestrictedTest, Theorem44SeparatesTheTwoSemantics) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}});
  std::vector<Fd> fds = {MakeFd(*scheme, "R", {"A"}, {"B"})};
  std::vector<Ind> inds = {MakeInd(*scheme, "R", {"A"}, "R", {"B"})};

  Dependency ind_target(MakeInd(*scheme, "R", {"B"}, "R", {"A"}));
  EXPECT_EQ(SolveUnder(ImplicationSemantics::kFinite, scheme, fds, inds,
                       ind_target)
                .outcome,
            ImplicationVerdict::kImplied);
  EXPECT_EQ(SolveUnder(ImplicationSemantics::kUnrestricted, scheme, fds,
                       inds, ind_target)
                .outcome,
            ImplicationVerdict::kNotImplied);

  Dependency fd_target(MakeFd(*scheme, "R", {"B"}, {"A"}));
  EXPECT_EQ(
      SolveUnder(ImplicationSemantics::kFinite, scheme, fds, inds, fd_target)
          .outcome,
      ImplicationVerdict::kImplied);
  EXPECT_EQ(SolveUnder(ImplicationSemantics::kUnrestricted, scheme, fds,
                       inds, fd_target)
                .outcome,
            ImplicationVerdict::kNotImplied);
}

TEST(FiniteVsUnrestrictedTest, PureIndsAgreeAcrossSemantics) {
  // Theorem 3.1: |= equals |=fin for INDs.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Ind> inds = {MakeInd(*scheme, "R", {"A"}, "S", {"C"})};
  Dependency target(MakeInd(*scheme, "R", {"A"}, "S", {"C"}));
  Verdict finite =
      SolveUnder(ImplicationSemantics::kFinite, scheme, {}, inds, target);
  Verdict unrestricted = SolveUnder(ImplicationSemantics::kUnrestricted,
                                    scheme, {}, inds, target);
  EXPECT_EQ(finite.outcome, unrestricted.outcome);
  EXPECT_EQ(unrestricted.outcome, ImplicationVerdict::kImplied);
}

TEST(FiniteVsUnrestrictedTest, UnrestrictedImpliedTransfersToFinite) {
  // Proposition 4.1 instance (binary IND, so not the unary engines): the
  // mixed route proves |=, and |= transfers to |=fin.
  SchemePtr scheme = MakeScheme({{"R", {"X", "Y"}}, {"S", {"T", "U"}}});
  std::vector<Fd> fds = {MakeFd(*scheme, "S", {"T"}, {"U"})};
  std::vector<Ind> inds = {
      MakeInd(*scheme, "R", {"X", "Y"}, "S", {"T", "U"})};
  Dependency target(MakeFd(*scheme, "R", {"X"}, {"Y"}));
  EXPECT_EQ(SolveUnder(ImplicationSemantics::kUnrestricted, scheme, fds,
                       inds, target)
                .outcome,
            ImplicationVerdict::kImplied);
  EXPECT_EQ(
      SolveUnder(ImplicationSemantics::kFinite, scheme, fds, inds, target)
          .outcome,
      ImplicationVerdict::kImplied);
}

}  // namespace
}  // namespace ccfp
