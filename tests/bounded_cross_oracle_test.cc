// Cross-oracle property tests for the id-space bounded searcher: on random
// small FD+IND instances the searcher must (a) agree with the test-only
// candidate-materializing reference on counterexample existence, (b) never
// contradict the chase-based implication oracle, and (c) return only
// genuine counterexamples — databases that pass interned Satisfies on
// every premise and fail the conclusion. (d) On random one- and
// two-relation schemes of arity 1-9 with FDs whose sides overlap and
// EMVDs/MVDs whose X overlaps Y or Z — the shapes the union-keyed
// counters exist for — it returns the reference's counterexample, or
// none, wherever the reference decides.
#include <gtest/gtest.h>

#include "chase/chase.h"
#include "core/satisfies.h"
#include "fd/closure.h"
#include "reference/bounded.h"
#include "search/bounded.h"
#include "util/strings.h"
#include "util/rng.h"

namespace ccfp {
namespace {

struct RandomInstance {
  SchemePtr scheme;
  std::vector<Fd> fds;
  std::vector<Ind> inds;

  std::vector<Dependency> Premises() const {
    std::vector<Dependency> out;
    for (const Fd& fd : fds) out.push_back(Dependency(fd));
    for (const Ind& ind : inds) out.push_back(Dependency(ind));
    return out;
  }
};

// Random FD+IND instance with forward-only (acyclic) INDs, so the chase
// oracle always terminates.
RandomInstance MakeInstance(std::uint64_t seed, std::size_t relations,
                            std::size_t arity) {
  SplitMix64 rng(seed);
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t r = 0; r < relations; ++r) {
    std::vector<std::string> attrs;
    for (std::size_t a = 0; a < arity; ++a) {
      attrs.push_back(std::string(1, static_cast<char>('A' + a)));
    }
    rels.emplace_back("R" + std::to_string(r), attrs);
  }
  RandomInstance instance;
  instance.scheme = MakeScheme(rels);
  for (std::size_t r = 0; r < relations; ++r) {
    for (int i = 0; i < 2; ++i) {
      AttrId x = static_cast<AttrId>(rng.Below(arity));
      AttrId y = static_cast<AttrId>(rng.Below(arity));
      if (x == y) continue;
      instance.fds.push_back(Fd{static_cast<RelId>(r), {x}, {y}});
    }
  }
  std::size_t count = 1 + rng.Below(3);
  for (std::size_t i = 0; i < count && relations >= 2; ++i) {
    RelId r1 = static_cast<RelId>(rng.Below(relations - 1));
    RelId r2 = static_cast<RelId>(r1 + 1 + rng.Below(relations - r1 - 1));
    instance.inds.push_back(
        Ind{r1,
            {static_cast<AttrId>(rng.Below(arity))},
            r2,
            {static_cast<AttrId>(rng.Below(arity))}});
  }
  return instance;
}

Dependency RandomTarget(const RandomInstance& instance, SplitMix64& rng,
                        std::size_t arity) {
  RelId rel = static_cast<RelId>(rng.Below(instance.scheme->size()));
  AttrId x = static_cast<AttrId>(rng.Below(arity));
  AttrId y = static_cast<AttrId>(rng.Below(arity));
  if (x == y) y = static_cast<AttrId>((y + 1) % arity);
  if (rng.Chance(1, 2)) {
    return Dependency(Fd{rel, {x}, {y}});
  }
  return Dependency(
      Ind{rel,
          {x},
          static_cast<RelId>(rng.Below(instance.scheme->size())),
          {y}});
}

class BoundedCrossOracleTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundedCrossOracleTest, IdSpaceAndLegacyEnginesAgree) {
  RandomInstance instance = MakeInstance(GetParam(), 3, 2);
  std::vector<Dependency> premises = instance.Premises();
  SplitMix64 rng(GetParam() * 71 + 3);
  for (int t = 0; t < 3; ++t) {
    Dependency target = RandomTarget(instance, rng, 2);
    if (!Validate(*instance.scheme, target).ok()) continue;
    Result<BoundedSearchResult> a =
        FindCounterexample(instance.scheme, premises, target);
    Result<BoundedSearchResult> b = reference::FindCounterexampleMaterialized(
        instance.scheme, premises, target);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_STREQ(a->engine, "bounded-search (id-space)");
    ASSERT_TRUE(a->exhausted);
    ASSERT_TRUE(b->exhausted);
    EXPECT_EQ(a->counterexample.has_value(), b->counterexample.has_value())
        << target.ToString(*instance.scheme);
    // Same pre-order enumeration: when both find one, it is the same
    // database, not merely an equivalent one.
    if (a->counterexample.has_value() && b->counterexample.has_value()) {
      EXPECT_TRUE(*a->counterexample == *b->counterexample)
          << a->counterexample->ToString() << "\nvs\n"
          << b->counterexample->ToString();
    }
  }
}

TEST_P(BoundedCrossOracleTest, CounterexamplesAreGenuineAndChaseConsistent) {
  RandomInstance instance = MakeInstance(GetParam() * 101 + 7, 3, 2);
  std::vector<Dependency> premises = instance.Premises();
  SplitMix64 rng(GetParam() * 13 + 11);
  for (int t = 0; t < 3; ++t) {
    Dependency target = RandomTarget(instance, rng, 2);
    if (!Validate(*instance.scheme, target).ok()) continue;
    Result<BoundedSearchResult> search =
        FindCounterexample(instance.scheme, premises, target);
    ASSERT_TRUE(search.ok());
    Result<ChaseImplication> implied = ChaseImplies(
        instance.scheme, instance.fds, instance.inds, target, Budget());
    if (search->counterexample.has_value()) {
      // (c) genuineness: the witness passes interned Satisfies on every
      // premise and fails the conclusion.
      const Database& db = *search->counterexample;
      for (const Dependency& p : premises) {
        EXPECT_TRUE(Satisfies(db, p))
            << "counterexample violates premise " <<
            p.ToString(*instance.scheme) << "\n" << db.ToString();
      }
      EXPECT_FALSE(Satisfies(db, target))
          << "counterexample satisfies the conclusion "
          << target.ToString(*instance.scheme) << "\n" << db.ToString();
      // (b) a finite counterexample refutes unrestricted implication.
      if (implied.ok()) {
        EXPECT_NE(implied->verdict, ImplicationVerdict::kImplied)
            << "chase says implied but a counterexample exists: "
            << target.ToString(*instance.scheme) << "\n" << db.ToString();
      }
    }
  }
}

// Pure-FD instances: implication is decidable and the standard two-tuple
// Armstrong argument bounds counterexamples, so bounded-search existence
// must agree with the FD closure oracle in BOTH directions.
TEST_P(BoundedCrossOracleTest, PureFdSearchMatchesClosureOracle) {
  SplitMix64 rng(GetParam() * 997 + 1);
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Fd> sigma;
  for (int i = 0; i < 3; ++i) {
    std::vector<AttrId> lhs, rhs;
    for (AttrId a = 0; a < 3; ++a) {
      if (rng.Chance(1, 2)) lhs.push_back(a);
      if (rng.Chance(1, 3)) rhs.push_back(a);
    }
    if (rhs.empty()) rhs.push_back(static_cast<AttrId>(rng.Below(3)));
    sigma.push_back(Fd{0, lhs, rhs});
  }
  std::vector<AttrId> t_lhs, t_rhs;
  for (AttrId a = 0; a < 3; ++a) {
    if (rng.Chance(1, 2)) t_lhs.push_back(a);
    if (rng.Chance(1, 2)) t_rhs.push_back(a);
  }
  if (t_rhs.empty()) t_rhs.push_back(0);
  Fd target{0, t_lhs, t_rhs};

  std::vector<Dependency> premises;
  for (const Fd& fd : sigma) premises.push_back(Dependency(fd));
  bool implied = FdImplies(*scheme, sigma, target);
  Result<bool> has_counterexample =
      HasBoundedCounterexample(scheme, premises, Dependency(target));
  ASSERT_TRUE(has_counterexample.ok()) << has_counterexample.status();
  EXPECT_EQ(implied, !*has_counterexample);
}

// A random set of attributes below `arity` (ascending, distinct), each
// drawn with probability 1/3, capped at `max_size`.
std::vector<AttrId> RandomAttrs(SplitMix64& rng, std::size_t arity,
                                std::size_t max_size) {
  std::vector<AttrId> out;
  for (AttrId a = 0; a < arity && out.size() < max_size; ++a) {
    if (rng.Chance(1, 3)) out.push_back(a);
  }
  return out;
}

// A random dependency of any kind over `scheme`: FD sides may overlap, an
// EMVD's X may overlap its Y and Z (Y and Z stay disjoint, as Validate
// requires), and an MVD's Y may overlap its X.
Dependency RandomDependency(const DatabaseScheme& scheme, SplitMix64& rng) {
  RelId rel = static_cast<RelId>(rng.Below(scheme.size()));
  std::size_t arity = scheme.relation(rel).arity();
  switch (rng.Below(4)) {
    case 0: {
      std::vector<AttrId> rhs = RandomAttrs(rng, arity, arity);
      if (rhs.empty()) rhs.push_back(static_cast<AttrId>(rng.Below(arity)));
      return Dependency(Fd{rel, RandomAttrs(rng, arity, 3), rhs});
    }
    case 1: {
      RelId rhs_rel = static_cast<RelId>(rng.Below(scheme.size()));
      std::size_t rhs_arity = scheme.relation(rhs_rel).arity();
      std::size_t width = 1 + rng.Below(std::min<std::size_t>(
                                  2, std::min(arity, rhs_arity)));
      AttrId l = static_cast<AttrId>(rng.Below(arity - width + 1));
      AttrId r = static_cast<AttrId>(rng.Below(rhs_arity - width + 1));
      Ind ind{rel, {l}, rhs_rel, {r}};
      if (width == 2) {
        ind.lhs.push_back(static_cast<AttrId>(l + 1));
        ind.rhs.insert(ind.rhs.begin(), static_cast<AttrId>(r + 1));
      }
      return Dependency(ind);
    }
    case 2: {
      Emvd e{rel, RandomAttrs(rng, arity, 2), {}, {}};
      for (AttrId a = 0; a < arity; ++a) {
        if (rng.Chance(1, 3)) {
          (rng.Chance(1, 2) ? e.y : e.z).push_back(a);
        }
      }
      return Dependency(e);
    }
    default:
      return Dependency(
          Mvd{rel, RandomAttrs(rng, arity, 2), RandomAttrs(rng, arity, 3)});
  }
}

TEST_P(BoundedCrossOracleTest,
       UnionKeyedCountersMatchTheReferenceOnWideSchemes) {
  SplitMix64 rng(GetParam() * 7919 + 5);
  for (int t = 0; t < 2; ++t) {
    std::size_t relations = 1 + rng.Below(2);
    std::size_t arity = 1 + rng.Below(9);
    std::vector<std::pair<std::string, std::vector<std::string>>> rels;
    for (std::size_t r = 0; r < relations; ++r) {
      std::vector<std::string> attrs;
      for (std::size_t a = 0; a < arity; ++a) attrs.push_back(StrCat("A", a));
      rels.emplace_back(StrCat("R", r), attrs);
    }
    SchemePtr scheme = MakeScheme(rels);
    std::vector<Dependency> premises;
    for (std::size_t i = 1 + rng.Below(3); i > 0; --i) {
      premises.push_back(RandomDependency(*scheme, rng));
    }
    Dependency target = RandomDependency(*scheme, rng);
    std::string query = StrCat("arity ", arity, ", ", relations,
                               " relation(s), target ",
                               target.ToString(*scheme));

    Result<BoundedSearchResult> id_space =
        FindCounterexample(scheme, premises, target);
    ASSERT_TRUE(id_space.ok()) << id_space.status() << "\n" << query;
    ASSERT_STREQ(id_space->engine, "bounded-search (id-space)");
    // The reference tests complete candidates one Value-hashing check at
    // a time; a few thousand keep arity 9 fast, and a capped run that
    // found nothing decides nothing.
    BoundedSearchOptions capped;
    capped.max_candidates = 4096;
    Result<BoundedSearchResult> ref = reference::FindCounterexampleMaterialized(
        scheme, premises, target, capped);
    ASSERT_TRUE(ref.ok()) << ref.status();
    if (ref->counterexample.has_value()) {
      ASSERT_TRUE(id_space->counterexample.has_value()) << query;
      EXPECT_TRUE(*id_space->counterexample == *ref->counterexample)
          << query << "\n" << id_space->counterexample->ToString()
          << "\nvs\n" << ref->counterexample->ToString();
    } else if (ref->exhausted) {
      EXPECT_TRUE(id_space->exhausted) << query;
      EXPECT_FALSE(id_space->counterexample.has_value())
          << query << "\n" << id_space->counterexample->ToString();
    }
    if (id_space->counterexample.has_value()) {
      const Database& db = *id_space->counterexample;
      for (const Dependency& p : premises) {
        EXPECT_TRUE(Satisfies(db, p)) << query << "\n" << db.ToString();
      }
      EXPECT_FALSE(Satisfies(db, target)) << query << "\n" << db.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedCrossOracleTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace ccfp
