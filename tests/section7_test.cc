// Mechanized verification of the Theorem 7.1 construction (Section 7): the
// chase re-derives Lemma 7.2, the consequence characterizations of Lemmas
// 7.4-7.6 hold over the bounded universe, and the Lemma 7.9 witness
// databases exist and behave as the proof requires.
#include <gtest/gtest.h>

#include "armstrong/builder.h"
#include "axiom/kary.h"
#include "axiom/oracle.h"
#include "chase/chase.h"
#include "constructions/section7.h"
#include "core/satisfies.h"
#include "fd/closure.h"
#include "ind/implication.h"

namespace ccfp {
namespace {

TEST(Section7Test, ConstructionShape) {
  Section7Construction c = MakeSection7(3);
  // Relations: F, G0..G3, H0..H3 = 9.
  EXPECT_EQ(c.scheme->size(), 9u);
  // INDs: alpha (n + 1) + beta (n + 1) + gamma (n + 1) + gamma' (n) = 4n+3.
  EXPECT_EQ(c.inds.size(), 4 * 3u + 3u);
  // FDs: delta_0 + eps_0..eps_n + theta_n = n + 3.
  EXPECT_EQ(c.fds.size(), 3u + 3u);
  // Every FD unary, every IND at most binary, no scheme over 3 attributes.
  for (const Fd& fd : c.fds) {
    EXPECT_EQ(fd.lhs.size(), 1u);
    EXPECT_EQ(fd.rhs.size(), 1u);
  }
  for (const Ind& ind : c.inds) EXPECT_LE(ind.width(), 2u);
  for (const RelationScheme& rel : c.scheme->relations()) {
    EXPECT_LE(rel.arity(), 3u);
  }
}

TEST(Section7Test, Lemma72ChaseDerivesSigma) {
  // Sigma |= F: A -> C, re-derived by the FD+IND chase for several n.
  for (std::size_t n : {1u, 2u, 3u, 4u}) {
    Section7Construction c = MakeSection7(n);
    Result<ChaseImplication> implied =
        ChaseImplies(c.scheme, c.fds, c.inds, Dependency(c.sigma), Budget());
    ASSERT_TRUE(implied.ok()) << "n = " << n << ": " << implied.status();
    EXPECT_EQ(implied->verdict, ImplicationVerdict::kImplied) << "n = " << n;
  }
}

TEST(Section7Test, Lemma73SigmaImpliesPhi) {
  Section7Construction c = MakeSection7(2);
  for (const Fd& fd : c.phi) {
    Result<ChaseImplication> implied =
        ChaseImplies(c.scheme, c.fds, c.inds, Dependency(fd), Budget());
    ASSERT_TRUE(implied.ok()) << implied.status();
    EXPECT_EQ(implied->verdict, ImplicationVerdict::kImplied)
        << Dependency(fd).ToString(*c.scheme);
  }
}

TEST(Section7Test, Lemma74OnlyTrivialRdsAreImplied) {
  Section7Construction c = MakeSection7(2);
  ChaseOracle oracle(c.scheme);
  std::vector<Dependency> sigma = c.SigmaDeps();
  for (const Dependency& tau : Section7Universe(c)) {
    if (!tau.is_rd()) continue;
    ImplicationVerdict verdict = oracle.Implies(sigma, tau);
    ASSERT_NE(verdict, ImplicationVerdict::kUnknown)
        << tau.ToString(*c.scheme);
    EXPECT_EQ(verdict == ImplicationVerdict::kImplied,
              IsTrivial(*c.scheme, tau))
        << tau.ToString(*c.scheme);
  }
}

TEST(Section7Test, Lemma75FdConsequencesArePhiPlus) {
  // Sigma |= delta iff phi |= delta, for every unary-lhs FD delta of the
  // universe.
  Section7Construction c = MakeSection7(2);
  ChaseOracle chase_oracle(c.scheme);
  std::vector<Dependency> sigma = c.SigmaDeps();
  for (const Dependency& tau : Section7Universe(c)) {
    if (!tau.is_fd()) continue;
    ImplicationVerdict verdict = chase_oracle.Implies(sigma, tau);
    ASSERT_NE(verdict, ImplicationVerdict::kUnknown)
        << tau.ToString(*c.scheme);
    bool phi_implies = FdImplies(*c.scheme, c.phi, tau.fd());
    EXPECT_EQ(verdict == ImplicationVerdict::kImplied, phi_implies)
        << tau.ToString(*c.scheme);
  }
}

TEST(Section7Test, Lemma76IndConsequencesAreLambdaPlus) {
  // Sigma |= delta iff lambda (the INDs of Sigma alone) |= delta, for every
  // IND delta of the universe.
  Section7Construction c = MakeSection7(2);
  ChaseOracle chase_oracle(c.scheme);
  IndImplication lambda_engine(c.scheme, c.inds);
  std::vector<Dependency> sigma = c.SigmaDeps();
  for (const Dependency& tau : Section7Universe(c)) {
    if (!tau.is_ind()) continue;
    ImplicationVerdict verdict = chase_oracle.Implies(sigma, tau);
    ASSERT_NE(verdict, ImplicationVerdict::kUnknown)
        << tau.ToString(*c.scheme);
    EXPECT_EQ(verdict == ImplicationVerdict::kImplied,
              *lambda_engine.Implies(tau.ind()))
        << tau.ToString(*c.scheme);
  }
}

// Lemma 7.9 witness: a database satisfying (phi - sigma) u (lambda -
// beta_j) but violating sigma = F: A -> C.
Database MakeLemma79Witness(const Section7Construction& c, std::size_t j) {
  std::vector<Fd> phi_minus_sigma;
  for (const Fd& fd : c.phi) {
    if (!(fd == c.sigma)) phi_minus_sigma.push_back(fd);
  }
  Ind beta_j = c.beta(j);
  std::vector<Ind> lambda_minus_beta;
  for (const Ind& ind : c.inds) {
    if (!(ind == beta_j)) lambda_minus_beta.push_back(ind);
  }
  // Seed: a pair of F-tuples agreeing exactly on A (the sigma violation)
  // plus generic tuples everywhere.
  Database seed(c.scheme);
  std::uint64_t next_null = 1;
  std::size_t f_arity = c.scheme->relation(c.f).arity();
  Tuple t1(f_arity), t2(f_arity);
  for (AttrId a = 0; a < f_arity; ++a) {
    t1[a] = Value::Null(next_null++);
    t2[a] = (a == 0) ? t1[a] : Value::Null(next_null++);
  }
  seed.Insert(c.f, std::move(t1));
  seed.Insert(c.f, std::move(t2));
  for (RelId rel = 0; rel < c.scheme->size(); ++rel) {
    std::size_t arity = c.scheme->relation(rel).arity();
    Tuple t(arity);
    for (AttrId a = 0; a < arity; ++a) t[a] = Value::Null(next_null++);
    seed.Insert(rel, std::move(t));
  }
  Chase chase(c.scheme, phi_minus_sigma, lambda_minus_beta);
  Result<ChaseResult> result = chase.Run(std::move(seed));
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint);
  return result->db;
}

TEST(Section7Test, Lemma79WitnessSatisfiesPButNotSigma) {
  for (std::size_t n : {2u, 3u}) {
    Section7Construction c = MakeSection7(n);
    for (std::size_t j = 0; j < n; ++j) {
      Database e = MakeLemma79Witness(c, j);
      // e satisfies phi - {F: A -> C}.
      for (const Fd& fd : c.phi) {
        if (fd == c.sigma) continue;
        EXPECT_TRUE(Satisfies(e, fd))
            << "n=" << n << " j=" << j << ": "
            << Dependency(fd).ToString(*c.scheme);
      }
      // e satisfies lambda - {beta_j}.
      Ind beta_j = c.beta(j);
      for (const Ind& ind : c.inds) {
        if (ind == beta_j) continue;
        EXPECT_TRUE(Satisfies(e, ind))
            << "n=" << n << " j=" << j << ": "
            << Dependency(ind).ToString(*c.scheme);
      }
      // e violates sigma = F: A -> C (Lemma 7.9's punchline).
      EXPECT_FALSE(Satisfies(e, c.sigma)) << "n=" << n << " j=" << j;
    }
  }
}

TEST(Section7Test, Lemma78NoMixedConsequencesSneakIn) {
  // Lemma 7.8's computational content: the consequences of
  // Sigma'_j = (phi - sigma) u (lambda - beta_j) within the universe are
  // exactly (FD consequences of phi - sigma) u (IND consequences of
  // lambda - beta_j) u trivial sentences — i.e., no FD/IND interaction.
  Section7Construction c = MakeSection7(2);
  std::size_t j = 0;
  std::vector<Fd> phi_minus_sigma;
  for (const Fd& fd : c.phi) {
    if (!(fd == c.sigma)) phi_minus_sigma.push_back(fd);
  }
  Ind beta_j = c.beta(j);
  std::vector<Ind> lambda_minus_beta;
  for (const Ind& ind : c.inds) {
    if (!(ind == beta_j)) lambda_minus_beta.push_back(ind);
  }
  std::vector<Dependency> sigma_prime;
  for (const Fd& fd : phi_minus_sigma) sigma_prime.push_back(Dependency(fd));
  for (const Ind& ind : lambda_minus_beta) {
    sigma_prime.push_back(Dependency(ind));
  }

  ChaseOracle chase_oracle(c.scheme);
  IndImplication ind_engine(c.scheme, lambda_minus_beta);
  for (const Dependency& tau : Section7Universe(c)) {
    ImplicationVerdict verdict = chase_oracle.Implies(sigma_prime, tau);
    ASSERT_NE(verdict, ImplicationVerdict::kUnknown)
        << tau.ToString(*c.scheme);
    bool structural = false;
    if (IsTrivial(*c.scheme, tau)) {
      structural = true;
    } else if (tau.is_fd()) {
      structural = FdImplies(*c.scheme, phi_minus_sigma, tau.fd());
    } else if (tau.is_ind()) {
      structural = *ind_engine.Implies(tau.ind());
    }
    EXPECT_EQ(verdict == ImplicationVerdict::kImplied, structural)
        << tau.ToString(*c.scheme);
  }
}

TEST(Section7Test, GammaClosedUnderKaryImplication) {
  // The Theorem 5.1 argument for unrestricted implication: with the n
  // Lemma 7.9 witnesses as counterexamples, any T <= Gamma with |T| <= k
  // (k < n) fails to imply anything outside Gamma. We verify over the
  // bounded universe with k = 1, n = 2.
  std::size_t n = 2, k = 1;
  Section7Construction c = MakeSection7(n);
  std::vector<Dependency> universe = Section7Universe(c);

  // Gamma = phi+ u lambda+ u omega - {F: A -> C}, restricted to universe.
  IndImplication lambda_engine(c.scheme, c.inds);
  std::vector<Dependency> gamma;
  for (const Dependency& tau : universe) {
    bool in = false;
    if (IsTrivial(*c.scheme, tau)) {
      in = true;
    } else if (tau.is_fd()) {
      in = FdImplies(*c.scheme, c.phi, tau.fd());
    } else if (tau.is_ind()) {
      in = *lambda_engine.Implies(tau.ind());
    }
    if (in && !(tau.is_fd() && tau.fd() == c.sigma)) gamma.push_back(tau);
  }

  // The witnesses must obey *exactly* p_j = Gamma - {sigma, beta_j}
  // (Lemma 7.8), so the chase-seeded databases are not enough — use the
  // Armstrong builder, which repairs accidental satisfactions.
  ChaseOracle expected_oracle(c.scheme);
  std::vector<Database> witnesses;
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<Fd> phi_minus_sigma;
    for (const Fd& fd : c.phi) {
      if (!(fd == c.sigma)) phi_minus_sigma.push_back(fd);
    }
    Ind beta_j = c.beta(j);
    std::vector<Ind> lambda_minus_beta;
    for (const Ind& ind : c.inds) {
      if (!(ind == beta_j)) lambda_minus_beta.push_back(ind);
    }
    Result<ArmstrongReport> report = BuildArmstrongDatabase(
        c.scheme, phi_minus_sigma, lambda_minus_beta, universe,
        expected_oracle);
    ASSERT_TRUE(report.ok()) << "j = " << j << ": " << report.status();
    witnesses.push_back(std::move(report->db));
  }
  CounterexampleOracle oracle(std::move(witnesses));
  KaryStats stats;
  auto escape = FindKaryEscape(universe, gamma, oracle, k, &stats);
  EXPECT_FALSE(escape.has_value()) << escape->ToString(*c.scheme);
  EXPECT_FALSE(stats.saw_unknown);

  // ... while Gamma is NOT closed under unbounded implication: Gamma
  // contains all of Sigma, and Sigma |= F: A -> C which is outside Gamma.
  ChaseOracle chase_oracle(c.scheme);
  EXPECT_EQ(chase_oracle.Implies(c.SigmaDeps(), Dependency(c.sigma)),
            ImplicationVerdict::kImplied);
}

}  // namespace
}  // namespace ccfp
