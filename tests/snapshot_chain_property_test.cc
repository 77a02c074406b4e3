// Randomized delta-chain equivalence for the v2 snapshot wire format
// (core/snapshot.h): a live journaling workspace and a mirror advanced
// only by applying the serialized deltas must stay *observably*
// identical at every persisted cursor — same materialization, same raw
// slots and feed windows, same verdicts and witnesses against the full
// random dependency universe — across appends, chase-protocol merges,
// partition compilation (live side only; partitions are consumer
// capital, not replayed state), and journaled feed trims. Also pinned:
// hash-chain linkage rejects stale deltas without touching the target,
// and a quiescent delta serializes O(in-flight journal) bytes, not
// O(state).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/snapshot.h"
#include "core/workspace.h"
#include "tests/trace_util.h"
#include "util/rng.h"
#include "verify/verifier.h"

namespace ccfp {
namespace {

using testutil::AppendRandomTuple;
using testutil::CheckAgreement;
using testutil::ExpectObservablyEquivalent;
using testutil::MergeRandomValues;
using testutil::RandomScheme;
using testutil::RandomUniverse;

class SnapshotChainPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// Fresh watchers on both sides agree with the sweep, the fresh
// re-intern, and *each other*. Scoped per batch: replayed kTrim entries
// ignore registered cursors, so ApplyWorkspaceDelta refuses a mirror
// that a persistent watcher would register on.
void CheckBothSides(const InternedWorkspace& live,
                    const InternedWorkspace& mirror,
                    const std::vector<Dependency>& deps) {
  IncrementalVerifier lv(&live);
  IncrementalVerifier mv(&mirror);
  std::vector<WatchId> lids, mids;
  for (const Dependency& dep : deps) {
    lids.push_back(lv.Watch(dep));
    mids.push_back(mv.Watch(dep));
  }
  CheckAgreement(live, lv, deps, lids);
  CheckAgreement(mirror, mv, deps, mids);
  for (std::size_t i = 0; i < deps.size(); ++i) {
    EXPECT_EQ(lv.Satisfies(lids[i]), mv.Satisfies(mids[i]))
        << deps[i].ToString(live.scheme());
  }
}

TEST_P(SnapshotChainPropertyTest, DeltaChainMirrorsLiveStateAtEveryCursor) {
  SplitMix64 rng(GetParam() * 6364136223846793005ull + 29);
  SchemePtr scheme = RandomScheme(rng);
  std::vector<Dependency> deps = RandomUniverse(scheme, rng, 10);
  if (deps.empty()) return;

  InternedWorkspace ws(scheme);
  std::vector<ValueId> pool;
  std::size_t seed_ops = 3 + rng.Below(8);
  for (std::size_t i = 0; i < seed_ops; ++i) {
    AppendRandomTuple(ws, rng, pool);
  }
  MergeRandomValues(ws, rng, pool);

  // Base record: serialize in memory, restore the mirror from it, and
  // re-base the live side onto the record's identity (what the chain
  // writer does after a durable base save).
  std::string base = SerializeWorkspace(ws, {}, "base-aux");
  Result<RestoredWorkspace> restored = DeserializeWorkspace(scheme, base);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->aux, "base-aux");
  EXPECT_EQ(restored->snapshot_id, Fnv1a64(base.substr(26)));
  InternedWorkspace mirror = std::move(restored->ws);
  ws.MarkJournalPersisted(restored->snapshot_id);
  ws.EnableJournal();
  ExpectObservablyEquivalent(ws, mirror);

  std::string first_delta;
  std::uint64_t tip = restored->snapshot_id;
  for (int batch = 0; batch < 6; ++batch) {
    std::size_t ops = 1 + rng.Below(5);
    for (std::size_t op = 0; op < ops; ++op) {
      if (rng.Chance(2, 3)) {
        AppendRandomTuple(ws, rng, pool);
      } else {
        MergeRandomValues(ws, rng, pool);
      }
    }
    // Live-only consumer activity: compiled partitions are rebuilt by
    // each side's own consumers, never shipped in a delta.
    ws.Satisfies(deps[rng.Below(deps.size())]);
    if (rng.Chance(1, 2)) {
      ws.CompactFeeds();  // journaled as kTrim entries
    }

    std::string aux = "delta-aux-" + std::to_string(batch);
    Result<std::string> delta = SerializeWorkspaceDelta(
        ws, {{static_cast<std::uint64_t>(batch)}}, aux);
    ASSERT_TRUE(delta.ok()) << delta.status();
    if (first_delta.empty()) first_delta = *delta;

    Result<WorkspaceDeltaInfo> info = ApplyWorkspaceDelta(mirror, *delta);
    ASSERT_TRUE(info.ok()) << info.status();
    EXPECT_EQ(info->base_id, tip) << "hash-chain link broken";
    EXPECT_EQ(info->aux, aux);
    ASSERT_EQ(info->consumer_cursors.size(), 1u);
    EXPECT_EQ(info->consumer_cursors[0][0],
              static_cast<std::uint64_t>(batch));
    ws.MarkJournalPersisted(info->id);
    tip = info->id;

    ExpectObservablyEquivalent(ws, mirror);
    CheckBothSides(ws, mirror, deps);
  }

  // A stale delta (pre-fold leftover) links to an id the mirror has
  // moved past: graceful FailedPrecondition, mirror untouched.
  ASSERT_FALSE(first_delta.empty());
  std::string before = mirror.Materialize().ToString();
  Result<WorkspaceDeltaInfo> stale = ApplyWorkspaceDelta(mirror, first_delta);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(mirror.Materialize().ToString(), before);
  ExpectObservablyEquivalent(ws, mirror);
}

TEST_P(SnapshotChainPropertyTest, QuiescentDeltaIsJournalSizedNotStateSized) {
  // The tentpole's cost model: once the journal is persisted, saving a
  // quiescent session serializes a near-empty delta — bytes proportional
  // to the in-flight journal (here: none), independent of how much state
  // the workspace carries.
  SplitMix64 rng(GetParam() * 2862933555777941757ull + 41);
  SchemePtr scheme = RandomScheme(rng);
  InternedWorkspace ws(scheme);
  std::vector<ValueId> pool;
  std::size_t n_ops = 30 + rng.Below(40);
  for (std::size_t i = 0; i < n_ops; ++i) {
    if (rng.Chance(3, 4)) {
      AppendRandomTuple(ws, rng, pool);
    } else {
      MergeRandomValues(ws, rng, pool);
    }
  }

  std::string base = SerializeWorkspace(ws);
  Result<RestoredWorkspace> restored = DeserializeWorkspace(scheme, base);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ws.MarkJournalPersisted(restored->snapshot_id);
  ws.EnableJournal();

  Result<std::string> quiescent = SerializeWorkspaceDelta(ws);
  ASSERT_TRUE(quiescent.ok()) << quiescent.status();
  // Header + kind + fingerprint + chain link + interner watermarks + an
  // empty journal + empty cursors/aux: a small constant, regardless of
  // the tuples the base carries.
  EXPECT_LT(quiescent->size(), 160u);
  EXPECT_LT(quiescent->size() * 4, base.size())
      << "quiescent delta should be far smaller than the full record "
         "(base " << base.size() << " bytes)";

  // One mutation batch later the delta grows by the journal, not by the
  // state: still far under a full serialization.
  for (int i = 0; i < 3; ++i) AppendRandomTuple(ws, rng, pool);
  Result<std::string> small = SerializeWorkspaceDelta(ws);
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_LT(small->size(), SerializeWorkspace(ws).size());

  // And it round-trips: the mirror catches up through it.
  InternedWorkspace mirror = std::move(restored->ws);
  Result<WorkspaceDeltaInfo> info = ApplyWorkspaceDelta(mirror, *small);
  ASSERT_TRUE(info.ok()) << info.status();
  ws.MarkJournalPersisted(info->id);
  ExpectObservablyEquivalent(ws, mirror);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotChainPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace ccfp
