// Differential property tests for the FD+IND chase: random *acyclic*
// instances (where termination is guaranteed) cross-checked against the
// bounded-model searcher and the unary engines.
#include <algorithm>
#include <gtest/gtest.h>

#include "chase/chase.h"
#include "chase/workspace_chase.h"
#include "core/satisfies.h"
#include "interact/unary_finite.h"
#include "reference/chase.h"
#include "search/bounded.h"
#include "util/rng.h"

namespace ccfp {
namespace {

struct AcyclicInstance {
  SchemePtr scheme;
  std::vector<Fd> fds;
  std::vector<Ind> inds;
};

// Random instance whose IND graph only points from lower-numbered to
// higher-numbered relations — acyclic, so the chase terminates.
AcyclicInstance MakeAcyclic(std::uint64_t seed, std::size_t relations,
                            std::size_t arity, bool unary_only) {
  SplitMix64 rng(seed);
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t r = 0; r < relations; ++r) {
    std::vector<std::string> attrs;
    for (std::size_t a = 0; a < arity; ++a) {
      attrs.push_back(std::string(1, static_cast<char>('A' + a)));
    }
    rels.emplace_back("R" + std::to_string(r), attrs);
  }
  AcyclicInstance instance;
  instance.scheme = MakeScheme(rels);
  // FDs: a few unary ones per relation.
  for (std::size_t r = 0; r < relations; ++r) {
    for (int i = 0; i < 2; ++i) {
      AttrId x = static_cast<AttrId>(rng.Below(arity));
      AttrId y = static_cast<AttrId>(rng.Below(arity));
      if (x == y) continue;
      instance.fds.push_back(Fd{static_cast<RelId>(r), {x}, {y}});
    }
  }
  // INDs: forward edges only.
  std::size_t count = 1 + rng.Below(4);
  for (std::size_t i = 0; i < count && relations >= 2; ++i) {
    RelId r1 = static_cast<RelId>(rng.Below(relations - 1));
    RelId r2 = static_cast<RelId>(r1 + 1 + rng.Below(relations - r1 - 1));
    std::size_t width = unary_only ? 1 : 1 + rng.Below(2);
    std::vector<AttrId> all(arity);
    for (AttrId a = 0; a < arity; ++a) all[a] = a;
    for (std::size_t j = arity; j > 1; --j) {
      std::swap(all[j - 1], all[rng.Below(j)]);
    }
    std::vector<AttrId> lhs(all.begin(), all.begin() + width);
    for (std::size_t j = arity; j > 1; --j) {
      std::swap(all[j - 1], all[rng.Below(j)]);
    }
    std::vector<AttrId> rhs(all.begin(), all.begin() + width);
    instance.inds.push_back(Ind{r1, lhs, r2, rhs});
  }
  return instance;
}

class ChasePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChasePropertyTest, FixpointSatisfiesAllDependencies) {
  AcyclicInstance instance = MakeAcyclic(GetParam(), 3, 3, false);
  Chase chase(instance.scheme, instance.fds, instance.inds);
  Database seed(instance.scheme);
  SplitMix64 rng(GetParam() * 31 + 7);
  std::uint64_t next_null = 1;
  for (RelId rel = 0; rel < instance.scheme->size(); ++rel) {
    for (int i = 0; i < 2; ++i) {
      Tuple t;
      for (std::size_t a = 0; a < 3; ++a) {
        t.push_back(Value::Null(next_null++));
      }
      seed.Insert(rel, std::move(t));
    }
  }
  Result<ChaseResult> result = chase.Run(std::move(seed));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->outcome, ChaseOutcome::kFixpoint);
  for (const Fd& fd : instance.fds) {
    EXPECT_TRUE(Satisfies(result->db, fd))
        << Dependency(fd).ToString(*instance.scheme);
  }
  for (const Ind& ind : instance.inds) {
    EXPECT_TRUE(Satisfies(result->db, ind))
        << Dependency(ind).ToString(*instance.scheme);
  }
}

TEST_P(ChasePropertyTest, ChaseImpliesNeverContradictsBoundedSearch) {
  AcyclicInstance instance = MakeAcyclic(GetParam(), 3, 2, false);
  std::vector<Dependency> premises;
  for (const Fd& fd : instance.fds) premises.push_back(Dependency(fd));
  for (const Ind& ind : instance.inds) premises.push_back(Dependency(ind));

  SplitMix64 rng(GetParam() * 101 + 13);
  // A few random targets per instance.
  for (int t = 0; t < 3; ++t) {
    RelId rel = static_cast<RelId>(rng.Below(instance.scheme->size()));
    AttrId x = static_cast<AttrId>(rng.Below(2));
    Dependency target =
        rng.Chance(1, 2)
            ? Dependency(Fd{rel, {x}, {static_cast<AttrId>(1 - x)}})
            : Dependency(Ind{
                  rel,
                  {x},
                  static_cast<RelId>(rng.Below(instance.scheme->size())),
                  {static_cast<AttrId>(rng.Below(2))}});
    if (!Validate(*instance.scheme, target).ok()) continue;
    Result<ChaseImplication> implied = ChaseImplies(
        instance.scheme, instance.fds, instance.inds, target, Budget());
    // Budget (should not happen: acyclic).
    if (!implied.ok() || implied->verdict == ImplicationVerdict::kUnknown) {
      continue;
    }
    Result<BoundedSearchResult> search =
        FindCounterexample(instance.scheme, premises, target);
    ASSERT_TRUE(search.ok());
    if (search->counterexample.has_value()) {
      EXPECT_EQ(implied->verdict, ImplicationVerdict::kNotImplied)
          << "chase claims implied but a finite counterexample exists: "
          << target.ToString(*instance.scheme) << "\n"
          << search->counterexample->ToString();
    }
  }
}

TEST_P(ChasePropertyTest, UnaryUnrestrictedAgreesWithChaseOnAcyclic) {
  AcyclicInstance instance = MakeAcyclic(GetParam(), 3, 3, true);
  UnaryUnrestrictedImplication engine(instance.scheme, instance.fds,
                                      instance.inds);
  SplitMix64 rng(GetParam() * 7 + 3);
  for (int t = 0; t < 4; ++t) {
    RelId rel = static_cast<RelId>(rng.Below(instance.scheme->size()));
    AttrId x = static_cast<AttrId>(rng.Below(3));
    AttrId y = static_cast<AttrId>(rng.Below(3));
    if (x == y) continue;
    Dependency target =
        rng.Chance(1, 2)
            ? Dependency(Fd{rel, {x}, {y}})
            : Dependency(Ind{
                  rel,
                  {x},
                  static_cast<RelId>(rng.Below(instance.scheme->size())),
                  {y}});
    Result<ChaseImplication> via_chase = ChaseImplies(
        instance.scheme, instance.fds, instance.inds, target, Budget());
    if (!via_chase.ok() || via_chase->verdict == ImplicationVerdict::kUnknown) {
      continue;
    }
    EXPECT_EQ(engine.Implies(target),
              via_chase->verdict == ImplicationVerdict::kImplied)
        << target.ToString(*instance.scheme);
  }
}

// --- Incremental engine vs the naive reference (tests/reference/) ------
// The delta-driven engine must be observationally identical to the naive
// reference: same outcome, same per-relation tuple counts, same merge and
// generation counters, and the same Satisfies verdict for every premise
// and for random targets.

Database RandomSeed(const AcyclicInstance& instance, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Database db(instance.scheme);
  std::uint64_t next_null = 1;
  std::vector<Value> recent;  // reused nulls provoke FD merges
  for (RelId rel = 0; rel < instance.scheme->size(); ++rel) {
    std::size_t arity = instance.scheme->relation(rel).arity();
    for (int i = 0; i < 3; ++i) {
      Tuple t;
      for (std::size_t a = 0; a < arity; ++a) {
        if (!recent.empty() && rng.Chance(1, 3)) {
          t.push_back(recent[rng.Below(recent.size())]);
        } else if (rng.Chance(1, 4)) {
          t.push_back(Value::Int(static_cast<std::int64_t>(rng.Below(3))));
        } else {
          Value v = Value::Null(next_null++);
          recent.push_back(v);
          t.push_back(v);
        }
      }
      db.Insert(rel, std::move(t));
    }
  }
  return db;
}

TEST_P(ChasePropertyTest, IncrementalAndNaiveEnginesAgree) {
  AcyclicInstance instance = MakeAcyclic(GetParam(), 4, 3, false);
  Chase chase(instance.scheme, instance.fds, instance.inds);
  Database seed = RandomSeed(instance, GetParam() * 97 + 5);

  Result<ChaseResult> a = chase.Run(seed);
  Result<ChaseResult> b = reference::NaiveChase(chase, seed);
  ASSERT_EQ(a.ok(), b.ok()) << a.status() << " vs " << b.status();
  if (!a.ok()) return;  // both exhausted: nothing more to compare

  EXPECT_EQ(a->outcome, b->outcome);
  // A failing chase bails out mid-flight; which merges are already applied
  // at that point is engine-specific, so only the outcome must agree.
  if (a->outcome != ChaseOutcome::kFixpoint) return;

  EXPECT_EQ(a->fd_merges, b->fd_merges);
  EXPECT_EQ(a->ind_tuples, b->ind_tuples);
  EXPECT_EQ(a->db.TotalTuples(), b->db.TotalTuples());
  for (RelId rel = 0; rel < instance.scheme->size(); ++rel) {
    EXPECT_EQ(a->db.relation(rel).size(), b->db.relation(rel).size())
        << "relation " << instance.scheme->relation(rel).name();
  }
  // Same rule-application strategy => identical fresh-null numbering =>
  // the databases are equal, not merely isomorphic.
  EXPECT_TRUE(a->db == b->db);
  for (const Fd& fd : instance.fds) {
    EXPECT_EQ(Satisfies(a->db, fd), Satisfies(b->db, fd));
  }
  for (const Ind& ind : instance.inds) {
    EXPECT_EQ(Satisfies(a->db, ind), Satisfies(b->db, ind));
  }
}

TEST_P(ChasePropertyTest, ChaseImpliesAgreesAcrossEngines) {
  AcyclicInstance instance = MakeAcyclic(GetParam(), 3, 3, false);

  SplitMix64 rng(GetParam() * 53 + 17);
  for (int t = 0; t < 4; ++t) {
    RelId rel = static_cast<RelId>(rng.Below(instance.scheme->size()));
    AttrId x = static_cast<AttrId>(rng.Below(3));
    AttrId y = static_cast<AttrId>(rng.Below(3));
    if (x == y) continue;
    Dependency target =
        rng.Chance(1, 2)
            ? Dependency(Fd{rel, {x}, {y}})
            : Dependency(Ind{
                  rel,
                  {x},
                  static_cast<RelId>(rng.Below(instance.scheme->size())),
                  {y}});
    Result<ChaseImplication> via_inc = ChaseImplies(
        instance.scheme, instance.fds, instance.inds, target, Budget());
    Result<bool> via_naive = reference::NaiveChaseImplies(
        instance.scheme, instance.fds, instance.inds, target);
    ASSERT_TRUE(via_inc.ok()) << via_inc.status();
    bool inc_decided = via_inc->verdict != ImplicationVerdict::kUnknown;
    ASSERT_EQ(inc_decided, via_naive.ok())
        << target.ToString(*instance.scheme);
    if (!inc_decided) continue;
    EXPECT_EQ(via_inc->verdict == ImplicationVerdict::kImplied, *via_naive)
        << target.ToString(*instance.scheme);
  }
}

TEST_P(ChasePropertyTest, ResumingAfterBudgetExhaustionReachesAModel) {
  // Drip-feed the step budget: run WorkspaceChase with a tiny per-call
  // budget, re-running on ResourceExhausted until it reports a fixpoint.
  // This pins the resume contract — an exhausted return must leave the
  // worklists (dirty queue, IND dirty lists, cursors) in a state a later
  // Run can pick up without losing merges or probes. A lost merge leaves
  // stale tuples no worklist entry ever revisits, and the "fixpoint" then
  // fails to satisfy Sigma — which is exactly what we check. (Literal
  // database equality with the one-shot engine is NOT required: the
  // interruption point legitimately reorders FD-drain vs IND-pass work,
  // so the fixpoints agree only up to null renaming.)
  AcyclicInstance instance = MakeAcyclic(GetParam(), 3, 3, false);
  Database seed(instance.scheme);
  SplitMix64 rng(GetParam() * 97 + 3);
  std::uint64_t next_null = 1;
  for (RelId rel = 0; rel < instance.scheme->size(); ++rel) {
    for (int i = 0; i < 3; ++i) {
      Tuple t;
      for (std::size_t a = 0; a < 3; ++a) {
        // Occasional shared nulls so FD merges actually fire.
        if (rng.Chance(1, 3) && next_null > 1) {
          t.push_back(Value::Null(1 + rng.Below(next_null - 1)));
        } else {
          t.push_back(Value::Null(next_null++));
        }
      }
      seed.Insert(rel, std::move(t));
    }
  }

  Chase chase(instance.scheme, instance.fds, instance.inds);
  Result<ChaseResult> one_shot = chase.Run(seed);
  ASSERT_TRUE(one_shot.ok()) << one_shot.status();
  ASSERT_EQ(one_shot->outcome, ChaseOutcome::kFixpoint);

  InternedWorkspace ws(instance.scheme);
  ws.AppendDatabase(seed);
  WorkspaceChase chaser(&ws, instance.fds, instance.inds);
  ChaseOptions drip;
  drip.max_steps = 2;
  int runs = 0;
  while (true) {
    ASSERT_LT(runs++, 10000) << "drip-fed chase failed to converge";
    Result<WorkspaceChaseStats> stats = chaser.Run(drip);
    if (stats.ok()) {
      ASSERT_EQ(stats->outcome, ChaseOutcome::kFixpoint);
      break;
    }
    ASSERT_EQ(stats.status().code(), StatusCode::kResourceExhausted)
        << stats.status();
  }
  // The resumed fixpoint must be a genuine Sigma-model, checked both on
  // the workspace (cached partitions over canonical ids — stale tuples
  // would poison these) and independently on the materialized heap
  // database through the legacy checker.
  Database materialized = ws.Materialize();
  SatisfiesOptions legacy;
  legacy.engine = SatisfiesEngine::kLegacy;
  for (const Fd& fd : instance.fds) {
    EXPECT_TRUE(ws.Satisfies(fd))
        << Dependency(fd).ToString(*instance.scheme) << " after " << runs
        << " drip-fed runs";
    EXPECT_TRUE(Satisfies(materialized, Dependency(fd), legacy))
        << Dependency(fd).ToString(*instance.scheme);
  }
  for (const Ind& ind : instance.inds) {
    EXPECT_TRUE(ws.Satisfies(ind))
        << Dependency(ind).ToString(*instance.scheme) << " after " << runs
        << " drip-fed runs";
    EXPECT_TRUE(Satisfies(materialized, Dependency(ind), legacy))
        << Dependency(ind).ToString(*instance.scheme);
  }
  // And it still contains everything the one-shot fixpoint derived from
  // the same seed, size-wise within the renaming: both are finite chase
  // fixpoints of (seed, Sigma), so neither can be empty where the other
  // is populated.
  for (RelId rel = 0; rel < instance.scheme->size(); ++rel) {
    EXPECT_EQ(materialized.relation(rel).empty(),
              one_shot->db.relation(rel).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChasePropertyTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace ccfp
