// Perf smoke tests (ctest -L smoke) for the interned model-checking core:
// ObeysExactly over a Section 6/7-sized sentence universe and a bounded
// counterexample search must finish well under a second. Both workloads
// were the dominant costs of witness verification before the interned
// model checker (core/workspace.h); a regression back to per-probe Value
// hashing (or per-candidate database materialization) fails here fast
// instead of surfacing as a slow bench.
#include <chrono>
#include <gtest/gtest.h>

#include "constructions/section6.h"
#include "constructions/section7.h"
#include "core/satisfies.h"
#include "search/bounded.h"

namespace ccfp {
namespace {

std::int64_t MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(SatisfiesSmokeTest, Section6ObeysExactlyFinishesFast) {
  constexpr std::size_t kK = 12;
  Section6Construction c = MakeSection6(kK);
  Database d = MakeSection6Armstrong(c, 0);
  std::vector<Dependency> expected = Section6ExpectedSatisfied(c, 0);

  auto start = std::chrono::steady_clock::now();
  std::optional<std::string> mismatch =
      ObeysExactly(d, c.universe, expected);
  std::int64_t elapsed_ms = MsSince(start);

  EXPECT_FALSE(mismatch.has_value()) << *mismatch;  // property (6.1)
  EXPECT_LT(elapsed_ms, 1000)
      << "interned ObeysExactly regressed to per-probe Value hashing over "
      << c.universe.size() << " universe sentences";
}

TEST(SatisfiesSmokeTest, Section7UniverseSweepFinishesFast) {
  constexpr std::size_t kN = 8;
  Section7Construction c = MakeSection7(kN);
  std::vector<Dependency> universe = Section7Universe(c);
  // The Lemma 7.9-style witness seed: two F-tuples agreeing on A.
  Database db(c.scheme);
  std::uint64_t next_null = 1;
  Tuple t1(3), t2(3);
  for (AttrId a = 0; a < 3; ++a) {
    t1[a] = Value::Null(next_null++);
    t2[a] = (a == 0) ? t1[a] : Value::Null(next_null++);
  }
  db.Insert(c.f, std::move(t1));
  db.Insert(c.f, std::move(t2));

  auto start = std::chrono::steady_clock::now();
  std::vector<Dependency> satisfied = SatisfiedSubset(db, universe);
  std::int64_t elapsed_ms = MsSince(start);

  EXPECT_FALSE(satisfied.empty());
  EXPECT_LT(elapsed_ms, 1000)
      << "interned SatisfiedSubset regressed over " << universe.size()
      << " universe sentences";
}

TEST(SatisfiesSmokeTest, BoundedSearchFinishesFast) {
  // Exhaustive no-counterexample workload: {A -> B, B -> C} |= A -> C over
  // domain 3 with up to 3 tuples — 3304 candidate subsets for the legacy
  // engine, a few hundred boundary evaluations after FD pruning for the
  // id-space engine.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Dependency> premises = {
      Dependency(MakeFd(*scheme, "R", {"A"}, {"B"})),
      Dependency(MakeFd(*scheme, "R", {"B"}, {"C"})),
  };
  Dependency conclusion(MakeFd(*scheme, "R", {"A"}, {"C"}));
  BoundedSearchOptions options;
  options.domain_size = 3;
  options.max_tuples_per_relation = 3;

  auto start = std::chrono::steady_clock::now();
  Result<BoundedSearchResult> result =
      FindCounterexample(scheme, premises, conclusion, options);
  std::int64_t elapsed_ms = MsSince(start);

  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->exhausted);
  EXPECT_FALSE(result->counterexample.has_value());
  EXPECT_LT(elapsed_ms, 1000)
      << "id-space bounded search regressed to per-candidate "
         "materialization";
}

}  // namespace
}  // namespace ccfp
