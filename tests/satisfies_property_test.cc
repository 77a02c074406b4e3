// Differential property tests for the interned model-checking core:
// random databases and dependency universes, asserting that the interned
// engine (core/workspace.h) agrees with the legacy Value-hashing engine on
// every Satisfies / FindViolation / ObeysExactly query, and that reported
// violation witnesses are genuine (re-checkable against the database).
#include <algorithm>
#include <gtest/gtest.h>

#include "core/satisfies.h"
#include "util/rng.h"

namespace ccfp {
namespace {

constexpr SatisfiesOptions kInterned{SatisfiesEngine::kInterned};
constexpr SatisfiesOptions kLegacy{SatisfiesEngine::kLegacy};

SchemePtr RandomScheme(SplitMix64& rng) {
  std::size_t relations = 2 + rng.Below(2);
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t r = 0; r < relations; ++r) {
    std::size_t arity = 2 + rng.Below(3);
    std::vector<std::string> attrs;
    for (std::size_t a = 0; a < arity; ++a) {
      attrs.push_back(std::string(1, static_cast<char>('A' + a)));
    }
    rels.emplace_back("R" + std::to_string(r), std::move(attrs));
  }
  return MakeScheme(std::move(rels));
}

// Random database mixing ints, labeled nulls, and strings, with heavy
// value reuse so FDs/INDs actually have a chance to hold.
Database RandomDatabase(const SchemePtr& scheme, SplitMix64& rng) {
  Database db(scheme);
  for (RelId rel = 0; rel < scheme->size(); ++rel) {
    std::size_t arity = scheme->relation(rel).arity();
    std::size_t tuples = rng.Below(6);
    for (std::size_t i = 0; i < tuples; ++i) {
      Tuple t;
      for (std::size_t a = 0; a < arity; ++a) {
        switch (rng.Below(4)) {
          case 0:
            t.push_back(Value::Null(1 + rng.Below(3)));
            break;
          case 1:
            t.push_back(Value::Str(rng.Chance(1, 2) ? "x" : "y"));
            break;
          default:
            t.push_back(Value::Int(static_cast<std::int64_t>(rng.Below(3))));
        }
      }
      db.Insert(rel, std::move(t));
    }
  }
  return db;
}

std::vector<AttrId> RandomAttrs(SplitMix64& rng, std::size_t arity,
                                std::size_t max_len, bool allow_empty) {
  std::vector<AttrId> all(arity);
  for (AttrId a = 0; a < arity; ++a) all[a] = a;
  for (std::size_t j = arity; j > 1; --j) {
    std::swap(all[j - 1], all[rng.Below(j)]);
  }
  std::size_t lo = allow_empty ? 0 : 1;
  std::size_t len = lo + rng.Below(std::min(max_len, arity) - lo + 1);
  return std::vector<AttrId>(all.begin(), all.begin() + len);
}

// A batch of random dependencies of every kind, filtered through Validate.
// Duplicate-free: ObeysExactly treats the expected set as a set, so a
// universe with repeats would make single-element perturbations invisible.
std::vector<Dependency> RandomUniverse(const SchemePtr& scheme,
                                       SplitMix64& rng, std::size_t count) {
  std::vector<Dependency> out;
  std::size_t attempts = 0;
  while (out.size() < count && ++attempts < count * 20) {
    RelId rel = static_cast<RelId>(rng.Below(scheme->size()));
    std::size_t arity = scheme->relation(rel).arity();
    Dependency dep = Dependency(Fd{0, {}, {0}});
    switch (rng.Below(5)) {
      case 0:
        dep = Dependency(Fd{rel, RandomAttrs(rng, arity, 2, true),
                            RandomAttrs(rng, arity, 2, false)});
        break;
      case 1: {
        RelId rhs_rel = static_cast<RelId>(rng.Below(scheme->size()));
        std::size_t rhs_arity = scheme->relation(rhs_rel).arity();
        std::size_t width = 1 + rng.Below(2);
        std::vector<AttrId> lhs = RandomAttrs(rng, arity, width, false);
        std::vector<AttrId> rhs = RandomAttrs(rng, rhs_arity, width, false);
        std::size_t w = std::min(lhs.size(), rhs.size());
        lhs.resize(w);
        rhs.resize(w);
        dep = Dependency(Ind{rel, std::move(lhs), rhs_rel, std::move(rhs)});
        break;
      }
      case 2: {
        std::size_t w = 1 + rng.Below(2);
        std::vector<AttrId> lhs = RandomAttrs(rng, arity, w, false);
        std::vector<AttrId> rhs = RandomAttrs(rng, arity, w, false);
        std::size_t n = std::min(lhs.size(), rhs.size());
        lhs.resize(n);
        rhs.resize(n);
        dep = Dependency(Rd{rel, std::move(lhs), std::move(rhs)});
        break;
      }
      case 3: {
        std::vector<AttrId> x = RandomAttrs(rng, arity, 2, true);
        std::vector<AttrId> y, z;
        for (AttrId a = 0; a < arity; ++a) {
          if (std::find(x.begin(), x.end(), a) != x.end()) continue;
          if (rng.Chance(1, 2)) {
            y.push_back(a);
          } else {
            z.push_back(a);
          }
        }
        std::sort(x.begin(), x.end());
        dep = Dependency(Emvd{rel, std::move(x), std::move(y),
                              std::move(z)});
        break;
      }
      default: {
        std::vector<AttrId> x = RandomAttrs(rng, arity, 2, true);
        std::vector<AttrId> y = RandomAttrs(rng, arity, 2, false);
        std::sort(x.begin(), x.end());
        std::sort(y.begin(), y.end());
        dep = Dependency(Mvd{rel, std::move(x), std::move(y)});
        break;
      }
    }
    if (!Validate(*scheme, dep).ok()) continue;
    if (std::find(out.begin(), out.end(), dep) != out.end()) continue;
    out.push_back(std::move(dep));
  }
  return out;
}

class SatisfiesPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SatisfiesPropertyTest, EnginesAgreeOnSatisfies) {
  SplitMix64 rng(GetParam());
  SchemePtr scheme = RandomScheme(rng);
  Database db = RandomDatabase(scheme, rng);
  for (const Dependency& dep : RandomUniverse(scheme, rng, 24)) {
    EXPECT_EQ(Satisfies(db, dep, kInterned), Satisfies(db, dep, kLegacy))
        << dep.ToString(*scheme) << "\n" << db.ToString();
  }
}

TEST_P(SatisfiesPropertyTest, EnginesAgreeOnFindViolation) {
  SplitMix64 rng(GetParam() * 1000003);
  SchemePtr scheme = RandomScheme(rng);
  Database db = RandomDatabase(scheme, rng);
  for (const Dependency& dep : RandomUniverse(scheme, rng, 24)) {
    std::optional<Violation> a = FindViolation(db, dep, kInterned);
    std::optional<Violation> b = FindViolation(db, dep, kLegacy);
    ASSERT_EQ(a.has_value(), b.has_value())
        << dep.ToString(*scheme) << "\n" << db.ToString();
    if (!a.has_value()) continue;
    EXPECT_EQ(a->kind, dep.kind());
    EXPECT_EQ(a->rel, b->rel);
    // Witnesses of every kind scan front-to-back in both engines, so the
    // reported indices must be identical, not merely both valid.
    EXPECT_EQ(a->tuple_indices, b->tuple_indices) << dep.ToString(*scheme);
    EXPECT_EQ(a->description, b->description);
  }
}

// Violation witnesses must be genuine: re-checkable against the database
// by hand, not just plausible-looking indices.
TEST_P(SatisfiesPropertyTest, ViolationWitnessesAreGenuine) {
  SplitMix64 rng(GetParam() * 77 + 9);
  SchemePtr scheme = RandomScheme(rng);
  Database db = RandomDatabase(scheme, rng);
  for (const Dependency& dep : RandomUniverse(scheme, rng, 24)) {
    std::optional<Violation> v = FindViolation(db, dep);
    if (!v.has_value()) continue;
    const Relation& r = db.relation(v->rel);
    ASSERT_EQ(v->tuple_indices.size(), v->tuples.size());
    for (std::size_t i = 0; i < v->tuple_indices.size(); ++i) {
      ASSERT_LT(v->tuple_indices[i], r.size());
      EXPECT_EQ(r.tuples()[v->tuple_indices[i]], v->tuples[i])
          << "witness tuple does not match the database";
    }
    switch (dep.kind()) {
      case DependencyKind::kFd: {
        ASSERT_EQ(v->tuples.size(), 2u);
        EXPECT_EQ(ProjectTuple(v->tuples[0], dep.fd().lhs),
                  ProjectTuple(v->tuples[1], dep.fd().lhs));
        EXPECT_NE(ProjectTuple(v->tuples[0], dep.fd().rhs),
                  ProjectTuple(v->tuples[1], dep.fd().rhs));
        break;
      }
      case DependencyKind::kInd: {
        ASSERT_EQ(v->tuples.size(), 1u);
        auto rhs_proj =
            db.relation(dep.ind().rhs_rel).ProjectSet(dep.ind().rhs);
        EXPECT_EQ(rhs_proj.count(ProjectTuple(v->tuples[0], dep.ind().lhs)),
                  0u);
        break;
      }
      case DependencyKind::kRd: {
        ASSERT_EQ(v->tuples.size(), 1u);
        EXPECT_NE(ProjectTuple(v->tuples[0], dep.rd().lhs),
                  ProjectTuple(v->tuples[0], dep.rd().rhs));
        break;
      }
      case DependencyKind::kEmvd:
      case DependencyKind::kMvd: {
        // Two same-X-group tuples whose (XY, XZ) combination no tuple of
        // the relation witnesses.
        const std::vector<AttrId>& x =
            dep.is_emvd() ? dep.emvd().x : dep.mvd().x;
        const std::vector<AttrId>& y =
            dep.is_emvd() ? dep.emvd().y : dep.mvd().y;
        std::vector<AttrId> z = dep.is_emvd()
                                    ? dep.emvd().z
                                    : MvdComplement(*scheme, dep.mvd());
        ASSERT_EQ(v->tuples.size(), 2u) << dep.ToString(*scheme);
        EXPECT_EQ(ProjectTuple(v->tuples[0], x),
                  ProjectTuple(v->tuples[1], x));
        std::vector<AttrId> xy = AppendDistinctAttrs(x, y);
        std::vector<AttrId> xz = AppendDistinctAttrs(x, z);
        Tuple need = ProjectTuple(v->tuples[0], xy);
        Tuple xz_part = ProjectTuple(v->tuples[1], xz);
        need.insert(need.end(), xz_part.begin(), xz_part.end());
        bool witnessed = false;
        for (const Tuple& t : r.tuples()) {
          Tuple combo = ProjectTuple(t, xy);
          Tuple t_xz = ProjectTuple(t, xz);
          combo.insert(combo.end(), t_xz.begin(), t_xz.end());
          if (combo == need) {
            witnessed = true;
            break;
          }
        }
        EXPECT_FALSE(witnessed)
            << "the reported (XY, XZ) combination is present, so the "
               "witness pair does not violate " << dep.ToString(*scheme);
        break;
      }
    }
  }
}

TEST_P(SatisfiesPropertyTest, EnginesAgreeOnObeysExactly) {
  SplitMix64 rng(GetParam() * 31 + 1);
  SchemePtr scheme = RandomScheme(rng);
  Database db = RandomDatabase(scheme, rng);
  std::vector<Dependency> universe = RandomUniverse(scheme, rng, 16);
  std::vector<Dependency> satisfied = SatisfiedSubset(db, universe);
  EXPECT_EQ(SatisfiedSubset(db, universe, kLegacy), satisfied);
  // Exactly the satisfied subset: both engines must accept.
  EXPECT_FALSE(ObeysExactly(db, universe, satisfied, kInterned).has_value());
  EXPECT_FALSE(ObeysExactly(db, universe, satisfied, kLegacy).has_value());
  // Any perturbation of the expected set: both engines must reject, with
  // the same diagnostic.
  if (!universe.empty()) {
    std::vector<Dependency> wrong = satisfied;
    const Dependency& flip = universe[rng.Below(universe.size())];
    auto it = std::find(wrong.begin(), wrong.end(), flip);
    if (it != wrong.end()) {
      wrong.erase(it);
    } else {
      wrong.push_back(flip);
    }
    std::optional<std::string> a = ObeysExactly(db, universe, wrong,
                                                kInterned);
    std::optional<std::string> b = ObeysExactly(db, universe, wrong,
                                                kLegacy);
    EXPECT_TRUE(a.has_value());
    EXPECT_TRUE(b.has_value());
    if (a.has_value() && b.has_value()) EXPECT_EQ(*a, *b);
  }
}

TEST_P(SatisfiesPropertyTest, FindFirstViolationReportsDepIndex) {
  SplitMix64 rng(GetParam() * 13 + 5);
  SchemePtr scheme = RandomScheme(rng);
  Database db = RandomDatabase(scheme, rng);
  std::vector<Dependency> universe = RandomUniverse(scheme, rng, 12);
  std::optional<Violation> first = FindFirstViolation(db, universe);
  std::optional<Violation> first_legacy =
      FindFirstViolation(db, universe, kLegacy);
  ASSERT_EQ(first.has_value(), first_legacy.has_value());
  if (!first.has_value()) {
    EXPECT_TRUE(SatisfiesAll(db, universe));
    return;
  }
  EXPECT_EQ(first->dep_index, first_legacy->dep_index);
  // Everything before the reported index holds; the reported one fails.
  for (std::size_t i = 0; i < first->dep_index; ++i) {
    EXPECT_TRUE(Satisfies(db, universe[i], kInterned));
  }
  EXPECT_FALSE(Satisfies(db, universe[first->dep_index], kInterned));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatisfiesPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 61));

}  // namespace
}  // namespace ccfp
