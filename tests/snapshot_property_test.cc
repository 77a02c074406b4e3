// Randomized round-trip properties for the snapshot layer
// (core/snapshot.h): a workspace serialized mid-session and restored must
// answer *identically* to the original at every later cursor position —
// same materialization, same watcher verdicts, same witnesses — while
// both sides keep agreeing with the sweep engine and a fresh re-intern
// (tests/trace_util.h drives the same traces as the verifier suite). The
// restored side replays the identical mutation suffix, which works
// because a restore is id-exact: the shared value pool carries over.
// Also pinned here: a chain base damaged on disk (a bit flip or a
// truncation) across random states is always rejected at load, never
// half-restored.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/snapshot.h"
#include "core/workspace.h"
#include "tests/trace_util.h"
#include "util/fault.h"
#include "util/rng.h"
#include "verify/verifier.h"

namespace ccfp {
namespace {

using testutil::AppendRandomTuple;
using testutil::CheckAgreement;
using testutil::MergeRandomValues;
using testutil::RandomScheme;
using testutil::RandomUniverse;

class SnapshotPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SnapshotPropertyTest, RestoredSessionAnswersIdenticallyAtEveryCursor) {
  SplitMix64 rng(GetParam() * 48271 + 13);
  SchemePtr scheme = RandomScheme(rng);
  std::vector<Dependency> deps = RandomUniverse(scheme, rng, 12);
  if (deps.empty()) return;

  InternedWorkspace ws(scheme);
  std::vector<ValueId> pool;
  for (int i = 0; i < 6; ++i) AppendRandomTuple(ws, rng, pool);
  MergeRandomValues(ws, rng, pool);

  IncrementalVerifier verifier(&ws);
  std::vector<WatchId> ids;
  for (const Dependency& dep : deps) ids.push_back(verifier.Watch(dep));

  // A lived-in prefix: several verified batches before the snapshot.
  for (int batch = 0; batch < 3; ++batch) {
    std::size_t ops = 1 + rng.Below(4);
    for (std::size_t op = 0; op < ops; ++op) {
      if (rng.Chance(2, 3)) {
        AppendRandomTuple(ws, rng, pool);
      } else {
        MergeRandomValues(ws, rng, pool);
      }
    }
    CheckAgreement(ws, verifier, deps, ids);
  }

  // Snapshot mid-session and restore into a second, independent session.
  Result<RestoredWorkspace> restored =
      DeserializeWorkspace(scheme, SerializeWorkspace(ws));
  ASSERT_TRUE(restored.ok()) << restored.status();
  InternedWorkspace ws2 = std::move(restored->ws);
  IncrementalVerifier verifier2(&ws2);
  std::vector<WatchId> ids2;
  for (const Dependency& dep : deps) ids2.push_back(verifier2.Watch(dep));
  EXPECT_EQ(ws.Materialize().ToString(), ws2.Materialize().ToString());

  // Replay an identical suffix on both sides: the restore is id-exact, so
  // a cloned rng + cloned pool drive bit-identical mutations.
  SplitMix64 rng2 = rng;
  std::vector<ValueId> pool2 = pool;
  for (int batch = 0; batch < 5; ++batch) {
    std::size_t ops = 1 + rng.Below(4);
    std::size_t ops2 = 1 + rng2.Below(4);
    ASSERT_EQ(ops, ops2);
    for (std::size_t op = 0; op < ops; ++op) {
      if (rng.Chance(2, 3)) {
        AppendRandomTuple(ws, rng, pool);
        ASSERT_TRUE(rng2.Chance(2, 3));
        AppendRandomTuple(ws2, rng2, pool2);
      } else {
        MergeRandomValues(ws, rng, pool);
        ASSERT_FALSE(rng2.Chance(2, 3));
        MergeRandomValues(ws2, rng2, pool2);
      }
    }
    // Every cursor position: both sessions self-consistent (watchers vs
    // sweep vs fresh re-intern) *and* mutually identical.
    CheckAgreement(ws, verifier, deps, ids);
    CheckAgreement(ws2, verifier2, deps, ids2);
    EXPECT_EQ(ws.Materialize().ToString(), ws2.Materialize().ToString());
    for (std::size_t i = 0; i < deps.size(); ++i) {
      EXPECT_EQ(verifier.Satisfies(ids[i]), verifier2.Satisfies(ids2[i]))
          << deps[i].ToString(*scheme);
    }
  }
}

TEST_P(SnapshotPropertyTest, InjectedSaveFaultsAlwaysRejectedAtLoad) {
  // Whatever state the trace reached, a saved record whose bytes were
  // damaged on disk by the injector (bit rot or a torn tail) must be
  // rejected by the load — and an undamaged save must restore observably
  // intact.
  SplitMix64 rng(GetParam() * 2654435761 + 17);
  SchemePtr scheme = RandomScheme(rng);
  InternedWorkspace ws(scheme);
  std::vector<ValueId> pool;
  std::size_t n_ops = 4 + rng.Below(20);
  for (std::size_t i = 0; i < n_ops; ++i) {
    if (rng.Chance(2, 3)) {
      AppendRandomTuple(ws, rng, pool);
    } else {
      MergeRandomValues(ws, rng, pool);
    }
  }
  for (const Dependency& dep : RandomUniverse(scheme, rng, 4)) {
    ws.Satisfies(dep);  // compile some partitions into the snapshot
  }

  std::string prefix = ::testing::TempDir() + "/ccfp_snapshot_prop_" +
                       std::to_string(GetParam());
  ASSERT_TRUE(SnapshotChainWriter(prefix).Save(ws).ok());
  FaultInjector fi(GetParam());
  FaultSite site = rng.Chance(1, 2) ? FaultSite::kSnapshotCorrupt
                                    : FaultSite::kSnapshotTruncate;
  testutil::DamageFileInPlace(prefix + ".base", fi, site);
  Result<RestoredChain> damaged = LoadSnapshotChain(scheme, prefix);
  ASSERT_FALSE(damaged.ok()) << "damaged snapshot restored";
  EXPECT_EQ(damaged.status().code(), StatusCode::kInvalidArgument);

  // The recovery path: a fresh chain rewrites the base; load, compare.
  ASSERT_TRUE(SnapshotChainWriter(prefix).Save(ws).ok());
  Result<RestoredChain> ok = LoadSnapshotChain(scheme, prefix);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ws.Materialize().ToString(),
            ok->restored.ws.Materialize().ToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace ccfp
