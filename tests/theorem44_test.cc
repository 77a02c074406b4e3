#include <gtest/gtest.h>

#include "constructions/theorem44.h"
#include "core/satisfies.h"
#include "interact/unary_finite.h"
#include "solve/solver.h"

namespace ccfp {
namespace {

TEST(Theorem44Test, GadgetShape) {
  Theorem44Gadget g = MakeTheorem44Gadget();
  EXPECT_EQ(Dependency(g.fd).ToString(*g.scheme), "R: A -> B");
  EXPECT_EQ(Dependency(g.ind).ToString(*g.scheme), "R[A] <= R[B]");
  EXPECT_EQ(Dependency(g.ind_conclusion).ToString(*g.scheme),
            "R[B] <= R[A]");
  EXPECT_EQ(Dependency(g.fd_conclusion).ToString(*g.scheme), "R: B -> A");
}

TEST(Theorem44Test, EveryFigure41PrefixViolatesSigma) {
  // The infinite witness r = {(i+1, i)} obeys Sigma, but every finite
  // prefix violates the IND: the maximal A entry has no B counterpart.
  // This is the computational content of "only infinite counterexamples
  // exist".
  Theorem44Gadget g = MakeTheorem44Gadget();
  for (std::size_t n : {1u, 2u, 5u, 32u, 256u}) {
    Database prefix = Figure41Prefix(g, n);
    EXPECT_TRUE(Satisfies(prefix, g.fd)) << "n = " << n;
    EXPECT_FALSE(Satisfies(prefix, g.ind)) << "n = " << n;
  }
}

TEST(Theorem44Test, EveryFigure42PrefixViolatesSigma) {
  Theorem44Gadget g = MakeTheorem44Gadget();
  for (std::size_t n : {2u, 5u, 32u, 256u}) {
    Database prefix = Figure42Prefix(g, n);
    EXPECT_TRUE(Satisfies(prefix, g.fd)) << "n = " << n;
    EXPECT_FALSE(Satisfies(prefix, g.ind)) << "n = " << n;
  }
}

TEST(Theorem44Test, PrefixViolationIsExactlyAtTheBoundary) {
  // Removing the boundary tuple's obligation: prefix minus its maximal
  // A-tuple still violates (the new maximum takes over) — the violation
  // chases the boundary forever, which is why the limit relation obeys
  // Sigma.
  Theorem44Gadget g = MakeTheorem44Gadget();
  Database prefix = Figure41Prefix(g, 10);
  auto violation = FindViolation(prefix, Dependency(g.ind));
  ASSERT_TRUE(violation.has_value());
  // The witness must mention the maximal A entry, 10.
  EXPECT_NE(violation->description.find("10"), std::string::npos);
}

TEST(Theorem44Test, FiniteImplicationHoldsByCounting) {
  Theorem44Gadget g = MakeTheorem44Gadget();
  UnaryFiniteImplication engine(g.scheme, {g.fd}, {g.ind});
  EXPECT_TRUE(engine.Implies(g.ind_conclusion));
  EXPECT_TRUE(engine.Implies(g.fd_conclusion));
}

TEST(Theorem44Test, UnrestrictedImplicationFailsPerWitnessReports) {
  Theorem44Gadget g = MakeTheorem44Gadget();
  InfiniteWitnessReport fig41 = Figure41Witness();
  EXPECT_TRUE(fig41.obeys_fd);
  EXPECT_TRUE(fig41.obeys_ind);
  EXPECT_FALSE(fig41.obeys_ind_conclusion);
  EXPECT_FALSE(fig41.explanation.empty());

  InfiniteWitnessReport fig42 = Figure42Witness();
  EXPECT_TRUE(fig42.obeys_fd);
  EXPECT_TRUE(fig42.obeys_ind);
  EXPECT_TRUE(fig42.obeys_ind_conclusion);
  EXPECT_FALSE(fig42.obeys_fd_conclusion);
}

TEST(Theorem44Test, WitnessReportsMatchLargePrefixBehaviour) {
  // Consistency between the symbolic reports and finite evidence: on the
  // prefix, all claims *except* those broken only at the boundary match.
  Theorem44Gadget g = MakeTheorem44Gadget();
  Database prefix = Figure41Prefix(g, 128);
  // FD and FD-conclusion claims are boundary-free and must match exactly.
  EXPECT_EQ(Satisfies(prefix, g.fd), Figure41Witness().obeys_fd);
  EXPECT_EQ(Satisfies(prefix, g.fd_conclusion),
            Figure41Witness().obeys_fd_conclusion);
  // The IND-conclusion violation (0 not an A entry) is also visible in
  // every prefix.
  EXPECT_FALSE(Satisfies(prefix, g.ind_conclusion));
}

TEST(Theorem44Test, TwoSolvesTellTheWholeStory) {
  Theorem44Gadget g = MakeTheorem44Gadget();
  std::vector<Dependency> sigma = {Dependency(g.fd), Dependency(g.ind)};
  SolveOptions finite_options;
  finite_options.semantics = ImplicationSemantics::kFinite;
  Verdict finite = SolveImplication(g.scheme, sigma,
                                    Dependency(g.ind_conclusion), Budget(),
                                    finite_options)
                       .value();
  Verdict unrestricted =
      SolveImplication(g.scheme, sigma, Dependency(g.ind_conclusion))
          .value();
  EXPECT_EQ(finite.outcome, ImplicationVerdict::kImplied);
  EXPECT_EQ(unrestricted.outcome, ImplicationVerdict::kNotImplied);
  EXPECT_FALSE(finite.engine.empty());
  EXPECT_FALSE(unrestricted.engine.empty());
}

}  // namespace
}  // namespace ccfp
