#include <gtest/gtest.h>

#include "chase/chase.h"
#include "chase/emvd_chase.h"
#include "chase/ind_chase.h"
#include "core/parser.h"
#include "core/satisfies.h"
#include "reference/chase.h"
#include "util/fault.h"

namespace ccfp {
namespace {

// --- Rule (*) IND chase --------------------------------------------------

TEST(IndChaseTest, PaperConstructionDecidesSimpleChain) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Ind> sigma = {MakeInd(*scheme, "R", {"A"}, "S", {"C"})};
  Result<IndChaseResult> yes = IndChaseDecide(
      scheme, sigma, MakeInd(*scheme, "R", {"A"}, "S", {"C"}));
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(yes->implied);
  Result<IndChaseResult> no = IndChaseDecide(
      scheme, sigma, MakeInd(*scheme, "R", {"B"}, "S", {"C"}));
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(no->implied);
}

TEST(IndChaseTest, EntriesStayInZeroToM) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Ind> sigma = {
      MakeInd(*scheme, "R", {"A", "B"}, "S", {"C", "D"}),
      MakeInd(*scheme, "S", {"D"}, "R", {"A"}),
  };
  Result<IndChaseResult> result = IndChaseDecide(
      scheme, sigma, MakeInd(*scheme, "R", {"A", "B"}, "S", {"C", "D"}));
  ASSERT_TRUE(result.ok());
  const std::int64_t m = 2;  // target width
  for (RelId rel = 0; rel < scheme->size(); ++rel) {
    for (const Tuple& t : result->db.relation(rel).tuples()) {
      for (const Value& v : t) {
        ASSERT_TRUE(v.is_int());
        EXPECT_GE(v.as_int(), 0);
        EXPECT_LE(v.as_int(), m);
      }
    }
  }
}

TEST(IndChaseTest, FixpointSaturatesExistingDatabase) {
  SchemePtr scheme = MakeScheme({{"R", {"A"}}, {"S", {"B"}}});
  Database db(scheme);
  db.Insert(0, TupleOfInts({7}));
  std::vector<Ind> sigma = {MakeInd(*scheme, "R", {"A"}, "S", {"B"})};
  Result<std::uint64_t> added = IndChaseFixpoint(db, sigma);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 1u);
  EXPECT_TRUE(db.relation(1).Contains(TupleOfInts({7})));
  EXPECT_TRUE(Satisfies(db, sigma[0]));
}

TEST(IndChaseTest, BudgetTripsOnLargeConstructions) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  // Rotation IND: generates many tuples under Rule (*).
  std::vector<Ind> sigma = {
      MakeInd(*scheme, "R", {"A", "B", "C"}, "R", {"B", "C", "A"})};
  IndChaseOptions options;
  options.max_tuples = 1;
  Result<IndChaseResult> result = IndChaseDecide(
      scheme, sigma,
      MakeInd(*scheme, "R", {"A", "B", "C"}, "R", {"C", "A", "B"}), options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// --- FD+IND chase ------------------------------------------------------

class ChaseTest : public ::testing::Test {
 protected:
  SchemePtr scheme_ = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
};

TEST_F(ChaseTest, FdMergesNulls) {
  Database db(scheme_);
  db.Insert(0, {Value::Int(1), Value::Null(1)});
  db.Insert(0, {Value::Int(1), Value::Null(2)});
  Chase chase(scheme_, {MakeFd(*scheme_, "R", {"A"}, {"B"})}, {});
  Result<ChaseResult> result = chase.Run(db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint);
  EXPECT_EQ(result->db.relation(0).size(), 1u);
  EXPECT_GE(result->fd_merges, 1u);
}

TEST_F(ChaseTest, FdConstantClashFails) {
  Database db(scheme_);
  db.Insert(0, TupleOfInts({1, 10}));
  db.Insert(0, TupleOfInts({1, 20}));
  Chase chase(scheme_, {MakeFd(*scheme_, "R", {"A"}, {"B"})}, {});
  Result<ChaseResult> result = chase.Run(db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ChaseOutcome::kFailed);
}

TEST_F(ChaseTest, FdResolvesNullToConstant) {
  Database db(scheme_);
  db.Insert(0, {Value::Int(1), Value::Int(42)});
  db.Insert(0, {Value::Int(1), Value::Null(5)});
  Chase chase(scheme_, {MakeFd(*scheme_, "R", {"A"}, {"B"})}, {});
  Result<ChaseResult> result = chase.Run(db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint);
  ASSERT_EQ(result->db.relation(0).size(), 1u);
  EXPECT_EQ(result->db.relation(0).tuples()[0][1], Value::Int(42));
}

TEST_F(ChaseTest, IndCreatesTupleWithFreshNulls) {
  Database db(scheme_);
  db.Insert(0, TupleOfInts({1, 2}));
  Chase chase(scheme_, {}, {MakeInd(*scheme_, "R", {"A"}, "S", {"C"})});
  Result<ChaseResult> result = chase.Run(db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint);
  ASSERT_EQ(result->db.relation(1).size(), 1u);
  const Tuple& t = result->db.relation(1).tuples()[0];
  EXPECT_EQ(t[0], Value::Int(1));
  EXPECT_TRUE(t[1].is_null());  // D padded with a fresh null
  EXPECT_TRUE(Satisfies(result->db, MakeInd(*scheme_, "R", {"A"}, "S",
                                            {"C"})));
}

TEST_F(ChaseTest, CyclicIndsExhaustBudget) {
  // R[A] <= R[B] with an FD forcing divergence is fine, but a plain
  // "shift" cycle with fresh nulls never closes: R[A] <= S[C], S[D] <= R[A]
  // keeps manufacturing tuples.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Ind> inds = {MakeInd(*scheme, "R", {"B"}, "S", {"C"}),
                           MakeInd(*scheme, "S", {"D"}, "R", {"B"})};
  Database db(scheme);
  db.Insert(0, {Value::Null(1), Value::Null(2)});
  Chase chase(scheme, {}, inds);
  ChaseOptions options;
  options.max_steps = 200;
  options.max_tuples = 100;
  Result<ChaseResult> result = chase.Run(db, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ChaseTest, FixpointSatisfiesAllDependencies) {
  Database db(scheme_);
  db.Insert(0, {Value::Null(1), Value::Null(2)});
  db.Insert(0, {Value::Null(1), Value::Null(3)});
  std::vector<Fd> fds = {MakeFd(*scheme_, "R", {"A"}, {"B"}),
                         MakeFd(*scheme_, "S", {"C"}, {"D"})};
  std::vector<Ind> inds = {
      MakeInd(*scheme_, "R", {"A", "B"}, "S", {"C", "D"})};
  Chase chase(scheme_, fds, inds);
  Result<ChaseResult> result = chase.Run(db);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->outcome, ChaseOutcome::kFixpoint);
  for (const Fd& fd : fds) EXPECT_TRUE(Satisfies(result->db, fd));
  for (const Ind& ind : inds) EXPECT_TRUE(Satisfies(result->db, ind));
}

// --- ChaseImplies (semi-decision of |=) -------------------------------

TEST_F(ChaseTest, ChaseImpliesProposition41) {
  // {R[A,B] <= S[C,D], S: C -> D} |= R: A -> B  (Proposition 4.1 with
  // X = A, Y = B, T = C, U = D).
  std::vector<Fd> fds = {MakeFd(*scheme_, "S", {"C"}, {"D"})};
  std::vector<Ind> inds = {
      MakeInd(*scheme_, "R", {"A", "B"}, "S", {"C", "D"})};
  Result<ChaseImplication> implied =
      ChaseImplies(scheme_, fds, inds,
                   Dependency(MakeFd(*scheme_, "R", {"A"}, {"B"})), Budget());
  ASSERT_TRUE(implied.ok()) << implied.status();
  EXPECT_EQ(implied->verdict, ImplicationVerdict::kImplied);
  // And not the converse FD.
  Result<ChaseImplication> not_implied =
      ChaseImplies(scheme_, fds, inds,
                   Dependency(MakeFd(*scheme_, "R", {"B"}, {"A"})), Budget());
  ASSERT_TRUE(not_implied.ok());
  EXPECT_EQ(not_implied->verdict, ImplicationVerdict::kNotImplied);
}

TEST_F(ChaseTest, ChaseImpliesProposition43Rd) {
  // {R[XY] <= S[TU], R[XZ] <= S[TU], S: T -> U} |= R[Y = Z].
  SchemePtr scheme = MakeScheme({{"R", {"X", "Y", "Z"}}, {"S", {"T", "U"}}});
  std::vector<Fd> fds = {MakeFd(*scheme, "S", {"T"}, {"U"})};
  std::vector<Ind> inds = {
      MakeInd(*scheme, "R", {"X", "Y"}, "S", {"T", "U"}),
      MakeInd(*scheme, "R", {"X", "Z"}, "S", {"T", "U"})};
  Result<ChaseImplication> implied =
      ChaseImplies(scheme, fds, inds,
                   Dependency(MakeRd(*scheme, "R", {"Y"}, {"Z"})), Budget());
  ASSERT_TRUE(implied.ok()) << implied.status();
  EXPECT_EQ(implied->verdict, ImplicationVerdict::kImplied);
}

TEST_F(ChaseTest, ChaseDivergesOnTheorem44Gadget) {
  // Theorem 4.4's gadget {R: A -> B, R[A] <= R[B]} has only *infinite*
  // countermodels for its conclusions, so the chase cannot terminate: its
  // universal model is the infinite Figure 4.1 relation. The budgeted
  // chase must report ResourceExhausted (the kUnknown verdict) rather than
  // guess.
  std::vector<Fd> fds = {MakeFd(*scheme_, "R", {"A"}, {"B"})};
  std::vector<Ind> inds = {MakeInd(*scheme_, "R", {"A"}, "R", {"B"})};
  Budget budget;
  budget.steps = 500;
  budget.tuples = 500;
  Result<ChaseImplication> ind_concl = ChaseImplies(
      scheme_, fds, inds,
      Dependency(MakeInd(*scheme_, "R", {"B"}, "R", {"A"})), budget);
  ASSERT_TRUE(ind_concl.ok()) << ind_concl.status();
  EXPECT_EQ(ind_concl->verdict, ImplicationVerdict::kUnknown);
  EXPECT_EQ(ind_concl->exhausted.code(), StatusCode::kResourceExhausted);
}

TEST_F(ChaseTest, CounterCappedOnlyWhenACounterCeilingStopsTheChase) {
  // On the Theorem 4.4 gadget the chase of R[B] <= R[A]'s one-tuple seed
  // appends one tuple per step forever, so whichever limit is lowest stops
  // it; the note names that limit, and only the two counter ceilings set
  // counter_capped.
  std::vector<Fd> fds = {MakeFd(*scheme_, "R", {"A"}, {"B"})};
  std::vector<Ind> inds = {MakeInd(*scheme_, "R", {"A"}, "R", {"B"})};
  Dependency divergent(MakeInd(*scheme_, "R", {"B"}, "R", {"A"}));
  auto chase = [&](const Dependency& target, const Budget& budget) {
    Result<ChaseImplication> run =
        ChaseImplies(scheme_, fds, inds, target, budget);
    EXPECT_TRUE(run.ok()) << run.status();
    return run.MoveValue();
  };

  Budget steps;
  steps.steps = 5;
  ChaseImplication by_steps = chase(divergent, steps);
  EXPECT_EQ(by_steps.exhausted.message(), "chase step budget exhausted");
  EXPECT_EQ(by_steps.steps, 6u);
  EXPECT_TRUE(by_steps.counter_capped);

  Budget tuples;
  tuples.tuples = 5;
  ChaseImplication by_tuples = chase(divergent, tuples);
  EXPECT_EQ(by_tuples.exhausted.message(), "chase tuple ceiling exceeded");
  EXPECT_EQ(by_tuples.ind_tuples, 5u);  // the seed plus 5 > 5
  EXPECT_TRUE(by_tuples.counter_capped);

  Budget bytes;
  bytes.bytes = 1;
  ChaseImplication by_bytes = chase(divergent, bytes);
  EXPECT_EQ(by_bytes.exhausted.message(), "chase byte ceiling exceeded");
  EXPECT_FALSE(by_bytes.counter_capped);

  // R: B -> A's two-tuple seed starts above a one-tuple ceiling, which the
  // engine only tests after an IND tuple; a fault stopping the chase first
  // is not a counter stop.
  Budget one_tuple;
  one_tuple.tuples = 1;
  FaultInjector fi(3);
  fi.Arm(FaultSite::kEngineExhaust, 0);
  ChaseImplication faulted;
  {
    ScopedFaultInjector scope(&fi);
    faulted = chase(Dependency(MakeFd(*scheme_, "R", {"B"}, {"A"})),
                    one_tuple);
  }
  EXPECT_EQ(faulted.exhausted.message(), "injected chase exhaustion");
  EXPECT_FALSE(faulted.counter_capped);

  // A fixpoint (the FD alone) is never counter-capped.
  Result<ChaseImplication> fixpoint = ChaseImplies(
      scheme_, fds, {}, Dependency(MakeFd(*scheme_, "R", {"A"}, {"B"})),
      one_tuple);
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.status();
  EXPECT_EQ(fixpoint->verdict, ImplicationVerdict::kImplied);
  EXPECT_FALSE(fixpoint->counter_capped);
}

TEST_F(ChaseTest, ChaseAgreesWithIndEngineOnPureInds) {
  SchemePtr scheme = MakeScheme(
      {{"R", {"A", "B"}}, {"S", {"C", "D"}}, {"T", {"E", "F"}}});
  std::vector<Ind> inds = {
      MakeInd(*scheme, "R", {"A", "B"}, "S", {"C", "D"}),
      MakeInd(*scheme, "S", {"D", "C"}, "T", {"E", "F"}),
  };
  for (const Ind& target :
       {MakeInd(*scheme, "R", {"B", "A"}, "T", {"E", "F"}),
        MakeInd(*scheme, "R", {"A"}, "T", {"E"}),
        MakeInd(*scheme, "R", {"A"}, "T", {"F"})}) {
    Result<ChaseImplication> via_chase =
        ChaseImplies(scheme, {}, inds, Dependency(target), Budget());
    ASSERT_TRUE(via_chase.ok());
    ASSERT_NE(via_chase->verdict, ImplicationVerdict::kUnknown);
    Result<IndChaseResult> via_rule_star =
        IndChaseDecide(scheme, inds, target);
    ASSERT_TRUE(via_rule_star.ok());
    EXPECT_EQ(via_chase->verdict == ImplicationVerdict::kImplied,
              via_rule_star->implied)
        << Dependency(target).ToString(*scheme);
  }
}

TEST_F(ChaseTest, DeepNullMergeChainDoesNotOverflowTheStack) {
  // Regression: pairs unioned in decreasing null order build a
  // root-under-root parent chain that is only walked when the merged
  // values are substituted back — at ~120k links the old *recursive*
  // ValueUnion::Find blew the stack. Both engines must chew through it.
  constexpr std::uint64_t kChain = 120000;
  Database db(scheme_);
  for (std::uint64_t k = kChain; k >= 1; --k) {
    db.Insert(0, {Value::Int(static_cast<std::int64_t>(k)), Value::Null(k)});
    db.Insert(0,
              {Value::Int(static_cast<std::int64_t>(k)), Value::Null(k + 1)});
  }
  Chase chase(scheme_, {MakeFd(*scheme_, "R", {"A"}, {"B"})}, {});
  ChaseOptions options;
  options.max_steps = 4 * kChain;
  options.max_tuples = 4 * kChain;
  for (bool naive : {true, false}) {
    Result<ChaseResult> result = naive
                                     ? reference::NaiveChase(chase, db, options)
                                     : chase.Run(db, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint);
    // Every null collapses into _n1; the pairs dedupe to one tuple per key.
    EXPECT_EQ(result->db.relation(0).size(), kChain);
    EXPECT_EQ(result->fd_merges, kChain);
    for (const Tuple& t : result->db.relation(0).tuples()) {
      EXPECT_EQ(t[1], Value::Null(1));
    }
  }
}

TEST_F(ChaseTest, ChaseIsDeterministic) {
  // Same input, same output: fresh-null numbering, worklist order, and
  // merge tie-breaking are all deterministic.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Fd> fds = {MakeFd(*scheme, "S", {"C"}, {"D"})};
  std::vector<Ind> inds = {
      MakeInd(*scheme, "R", {"A", "B"}, "S", {"C", "D"})};
  Chase chase(scheme, fds, inds);
  auto run_once = [&]() {
    Database seed(scheme);
    seed.Insert(0, {Value::Null(1), Value::Null(2)});
    seed.Insert(0, {Value::Null(1), Value::Null(3)});
    Result<ChaseResult> result = chase.Run(std::move(seed));
    EXPECT_TRUE(result.ok());
    return result->db;
  };
  Database first = run_once();
  Database second = run_once();
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.ToString(), second.ToString());
}

// --- EMVD chase -----------------------------------------------------------

TEST(EmvdChaseTest, SingleEmvdImpliesItself) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  Emvd e = MakeEmvd(*scheme, "R", {"A"}, {"B"}, {"C"});
  Result<bool> implied = EmvdChaseImplies(scheme, {e}, e);
  ASSERT_TRUE(implied.ok()) << implied.status();
  EXPECT_TRUE(*implied);
}

TEST(EmvdChaseTest, IndependentEmvdNotImplied) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C", "D"}}});
  Emvd premise = MakeEmvd(*scheme, "R", {"A"}, {"B"}, {"C"});
  Emvd target = MakeEmvd(*scheme, "R", {"B"}, {"C"}, {"D"});
  Result<bool> implied = EmvdChaseImplies(scheme, {premise}, target);
  // Either the chase reaches a fixpoint and refutes, or the budget trips;
  // it must never claim implication.
  if (implied.ok()) {
    EXPECT_FALSE(*implied);
  } else {
    EXPECT_EQ(implied.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(EmvdChaseTest, CrossPairWitnessedByLaterTupleIsNotDuplicated) {
  // Regression for the delta-driven rounds: the cross pair
  // (t2[XY], t1[XZ]) = (a,b2 | a,c1) is already witnessed by t3 itself,
  // so only the (t1[XY], t2[XZ]) = (a,b1 | a,c2) witness may be created.
  // Lazily seeding self-pairs per tuple (instead of for the whole delta
  // up front) used to spawn a spurious second witness.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C", "D"}}});
  Emvd e = MakeEmvd(*scheme, "R", {"A"}, {"B"}, {"C"});
  Database db(scheme);
  db.Insert(0, TupleOfInts({1, 10, 100, 1000}));
  db.Insert(0, TupleOfInts({1, 20, 200, 2000}));
  db.Insert(0, TupleOfInts({1, 20, 100, 3000}));
  Result<std::uint64_t> added = EmvdChaseFixpoint(db, {e});
  ASSERT_TRUE(added.ok()) << added.status();
  EXPECT_EQ(*added, 1u);
  EXPECT_EQ(db.relation(0).size(), 4u);
  EXPECT_TRUE(Satisfies(db, e));
}

TEST(EmvdChaseTest, FixpointSatisfiesSigma) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  Emvd e = MakeEmvd(*scheme, "R", {"A"}, {"B"}, {"C"});
  Database db(scheme);
  db.Insert(0, TupleOfInts({1, 10, 100}));
  db.Insert(0, TupleOfInts({1, 20, 200}));
  Result<std::uint64_t> added = EmvdChaseFixpoint(db, {e});
  ASSERT_TRUE(added.ok()) << added.status();
  EXPECT_TRUE(Satisfies(db, e));
  EXPECT_EQ(*added, 2u);  // the two missing cross tuples
}

}  // namespace
}  // namespace ccfp
