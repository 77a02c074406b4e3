// Differential property tests for the incremental verification layer
// (verify/verifier.h) and the surgical partition repair underneath it
// (core/workspace.h): randomized append / merge / kill traces driven
// through an InternedWorkspace, asserting at every cursor position that
//   * watcher verdicts agree with the workspace full-sweep engine AND
//     with a one-shot Satisfies on the materialized state, which checks
//     on a fresh throwaway workspace (whose partitions were never
//     repaired — the ground truth for the repair machinery);
//   * violation witnesses agree across all three, modulo the alive-rank
//     index mapping between workspace slots and the materialized tuples;
//   * feed compaction is invisible: cursor-respecting CompactFeeds never
//     changes a verdict (the verifier CHECKs that it never finds its
//     cursor behind the compaction horizon).
// The shared trace driver lives in tests/trace_util.h.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "chase/workspace_chase.h"
#include "core/workspace.h"
#include "tests/trace_util.h"
#include "util/rng.h"
#include "verify/verifier.h"

namespace ccfp {
namespace {

using testutil::AppendRandomTuple;
using testutil::CheckAgreement;
using testutil::MergeRandomValues;
using testutil::RandomScheme;
using testutil::RandomUniverse;

class VerifyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

/// The dedup index after a trace step: every alive slot is found by its
/// own row, no dead slot is found, and appending an alive row again is
/// refused without touching the store.
void CheckDedup(InternedWorkspace& ws) {
  for (RelId rel = 0; rel < ws.scheme().size(); ++rel) {
    for (std::uint32_t i = 0; i < ws.size(rel); ++i) {
      IdTuple row(ws.tuple(rel, i).begin(), ws.tuple(rel, i).end());
      std::optional<std::uint32_t> found = ws.FindTuple(rel, row);
      if (!ws.alive(rel, i)) {
        EXPECT_NE(found, std::optional<std::uint32_t>(i))
            << "dead slot " << i << " of rel " << rel << " is indexed";
        continue;
      }
      ASSERT_TRUE(found.has_value()) << "alive slot " << i << " of rel "
                                     << rel << " is not indexed";
      EXPECT_EQ(*found, i);
      std::size_t slots = ws.size(rel);
      EXPECT_FALSE(ws.Append(rel, row));
      EXPECT_EQ(ws.size(rel), slots);
    }
  }
}

TEST_P(VerifyPropertyTest, WatchersMatchSweepOnRandomTraces) {
  SplitMix64 rng(GetParam());
  SchemePtr scheme = RandomScheme(rng);
  std::vector<Dependency> deps = RandomUniverse(scheme, rng, 14);
  if (deps.empty()) return;

  InternedWorkspace ws(scheme);
  std::vector<ValueId> pool;
  // A prefix of mutations *before* the verifier exists: watchers must
  // initialize from non-trivial state, not just consume a feed from zero.
  for (int i = 0; i < 6; ++i) {
    AppendRandomTuple(ws, rng, pool);
    CheckDedup(ws);
  }
  MergeRandomValues(ws, rng, pool);
  CheckDedup(ws);

  IncrementalVerifier verifier(&ws);
  std::vector<WatchId> ids;
  for (const Dependency& dep : deps) ids.push_back(verifier.Watch(dep));
  // Watching twice returns the same id (watcher state is shared).
  for (std::size_t i = 0; i < deps.size(); ++i) {
    EXPECT_EQ(verifier.Watch(deps[i]), ids[i]);
  }
  CheckAgreement(ws, verifier, deps, ids);

  for (int batch = 0; batch < 8; ++batch) {
    std::size_t ops = 1 + rng.Below(4);
    for (std::size_t op = 0; op < ops; ++op) {
      if (rng.Chance(2, 3)) {
        AppendRandomTuple(ws, rng, pool);
      } else {
        MergeRandomValues(ws, rng, pool);
      }
      CheckDedup(ws);
    }
    CheckAgreement(ws, verifier, deps, ids);
  }
}

TEST_P(VerifyPropertyTest, WatchersMatchSweepAcrossChaseRounds) {
  // The real producer of rewrite/kill events: a resumable FD+IND chase.
  // After every fixpoint the verifier must agree with the sweep engine —
  // this is the "verify mid-chase without epoch churn" contract.
  SplitMix64 rng(GetParam() * 7919 + 3);
  SchemePtr scheme = RandomScheme(rng);
  std::vector<Dependency> universe = RandomUniverse(scheme, rng, 12);
  if (universe.empty()) return;

  std::vector<Fd> fds;
  std::vector<Ind> inds;
  for (const Dependency& dep : RandomUniverse(scheme, rng, 8)) {
    if (dep.is_fd() && !dep.fd().lhs.empty()) fds.push_back(dep.fd());
    // Acyclic IND sigma (strictly ascending relation chain), so the
    // chase terminates without a budget dance.
    if (dep.is_ind() && dep.ind().lhs_rel < dep.ind().rhs_rel) {
      inds.push_back(dep.ind());
    }
  }

  InternedWorkspace ws(scheme);
  std::vector<ValueId> pool;
  for (int i = 0; i < 5; ++i) AppendRandomTuple(ws, rng, pool);

  WorkspaceChase chaser(&ws, fds, inds);
  IncrementalVerifier verifier(&ws);
  std::vector<WatchId> ids;
  for (const Dependency& dep : universe) ids.push_back(verifier.Watch(dep));

  for (int round = 0; round < 4; ++round) {
    Result<WorkspaceChaseStats> run = chaser.Run({});
    ASSERT_TRUE(run.ok()) << run.status();
    if (run->outcome == ChaseOutcome::kFailed) return;  // constant clash
    // The chase is caught up with the feed at a fixpoint.
    for (RelId rel = 0; rel < scheme->size(); ++rel) {
      EXPECT_EQ(chaser.event_cursor(rel), ws.EventCount(rel));
    }
    CheckAgreement(ws, verifier, universe, ids);
    CheckDedup(ws);
    for (int i = 0; i < 3; ++i) AppendRandomTuple(ws, rng, pool);
  }
}

TEST_P(VerifyPropertyTest, CursorRespectingCompactionIsInvisible) {
  // CompactFeeds between batches: the verifier's registered cursor pins
  // the un-replayed suffix, so compaction must never change a verdict and
  // must never strand the verifier (CatchUp CHECKs it).
  SplitMix64 rng(GetParam() * 104729 + 11);
  SchemePtr scheme = RandomScheme(rng);
  std::vector<Dependency> deps = RandomUniverse(scheme, rng, 10);
  if (deps.empty()) return;

  InternedWorkspace ws(scheme);
  std::vector<ValueId> pool;
  for (int i = 0; i < 5; ++i) AppendRandomTuple(ws, rng, pool);

  IncrementalVerifier verifier(&ws);
  std::vector<WatchId> ids;
  for (const Dependency& dep : deps) ids.push_back(verifier.Watch(dep));

  for (int batch = 0; batch < 6; ++batch) {
    std::size_t ops = 1 + rng.Below(4);
    for (std::size_t op = 0; op < ops; ++op) {
      if (rng.Chance(2, 3)) {
        AppendRandomTuple(ws, rng, pool);
      } else {
        MergeRandomValues(ws, rng, pool);
      }
      CheckDedup(ws);
    }
    // Compact *before* the verifier catches up: the registered cursor
    // must hold the unconsumed suffix in place.
    ws.CompactFeeds();
    CheckAgreement(ws, verifier, deps, ids);
    // Caught up: now the whole retained window is trimmable.
    ws.CompactFeeds();
    for (RelId rel = 0; rel < scheme->size(); ++rel) {
      EXPECT_EQ(ws.FeedBase(rel), ws.EventCount(rel))
          << "caught-up consumer should not pin the feed";
    }
    CheckAgreement(ws, verifier, deps, ids);
  }
  EXPECT_GT(ws.stats().feed_compactions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifyPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 61));

}  // namespace
}  // namespace ccfp
