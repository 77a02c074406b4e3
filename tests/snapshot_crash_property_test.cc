// Crash-safety properties for the atomic snapshot chain
// (core/snapshot.h): with the fault injector (util/fault.h) "killing the
// process" at every modeled crash instant — torn temp write, bit rot,
// pre-fsync loss, post-rename loss — a chain save either lands
// completely or not at all. Whatever the random state and crash site,
// LoadSnapshotChain afterwards restores *exactly* the previous persisted
// state or *exactly* the new one, never a torn hybrid; the saver always
// observes failure, keeps its journal, and the retried save repairs the
// chain in place. The session-level test is the ISSUE's acceptance
// scenario: an ArmstrongSession checkpointing through a delta chain is
// crashed mid-save, warm-reloaded from the persisted classification
// record (zero oracle replay), and must answer identically to a control
// session that never crashed.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "armstrong/builder.h"
#include "axiom/oracle.h"
#include "axiom/sentence.h"
#include "core/satisfies.h"
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
using testutil::ExpectObservablyEquivalent;
using testutil::MergeRandomValues;
using testutil::RandomScheme;
using testutil::RandomUniverse;

constexpr FaultSite kCrashSites[] = {
    FaultSite::kSnapshotCorrupt,
    FaultSite::kSnapshotTruncate,
    FaultSite::kSnapshotFsync,
    FaultSite::kSnapshotRename,
};

class SnapshotCrashPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

/// True when `writer`'s next Save of a workspace at its tip folds the
/// chain into a fresh base — the writer's own rule (kMaxDeltas deltas, or
/// delta bytes past kFoldDeltaPercent of the base's), read off the files.
bool NextSaveFolds(const SnapshotChainWriter& writer) {
  std::uintmax_t delta_bytes = 0;
  for (std::size_t k = 1; k <= writer.delta_count(); ++k) {
    delta_bytes += std::filesystem::file_size(writer.DeltaPath(k));
  }
  return writer.delta_count() >= SnapshotChainWriter::kMaxDeltas ||
         delta_bytes * 100 > std::filesystem::file_size(writer.BasePath()) *
                                 SnapshotChainWriter::kFoldDeltaPercent;
}

void MutateBatch(InternedWorkspace& ws, SplitMix64& rng,
                 std::vector<ValueId>& pool, std::size_t ops) {
  for (std::size_t op = 0; op < ops; ++op) {
    if (rng.Chance(2, 3)) {
      AppendRandomTuple(ws, rng, pool);
    } else {
      MergeRandomValues(ws, rng, pool);
    }
  }
}

TEST_P(SnapshotCrashPropertyTest, CrashedChainSaveLeavesOldOrNewExactly) {
  const std::uint64_t seed = GetParam();
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 7);
  SchemePtr scheme = RandomScheme(rng);
  std::vector<Dependency> deps = RandomUniverse(scheme, rng, 8);
  InternedWorkspace ws(scheme);
  std::vector<ValueId> pool;
  MutateBatch(ws, rng, pool, 4 + rng.Below(10));
  for (const Dependency& dep : deps) ws.Satisfies(dep);

  std::string prefix = ::testing::TempDir() + "/ccfp_crash_chain_" +
                       std::to_string(seed);
  SnapshotChainWriter writer(prefix);
  ASSERT_TRUE(writer.Save(ws, {}, "s0").ok());
  Result<RestoredChain> s0 = LoadSnapshotChain(scheme, prefix);
  ASSERT_TRUE(s0.ok()) << s0.status();

  // Advance to S1 with the journal recording, then crash the delta save.
  MutateBatch(ws, rng, pool, 2 + rng.Below(6));
  if (rng.Chance(1, 2)) ws.CompactFeeds();
  FaultSite site = kCrashSites[seed % 4];
  FaultInjector fi(seed);
  fi.Arm(site, 0);
  Status crashed;
  {
    ScopedFaultInjector scope(&fi);
    crashed = writer.Save(ws, {}, "s1");
  }
  ASSERT_EQ(fi.fired(site), 1u);
  ASSERT_FALSE(crashed.ok())
      << "the saver must never observe success across a crash instant";
  EXPECT_EQ(crashed.code(), StatusCode::kInternal);

  // Whatever the crash instant, the chain on disk is one *complete*
  // state: exactly the old S0 (crash before the rename landed) or
  // exactly the new S1 (crash just after) — never a torn hybrid.
  Result<RestoredChain> after = LoadSnapshotChain(scheme, prefix);
  ASSERT_TRUE(after.ok()) << after.status();
  if (site == FaultSite::kSnapshotRename) {
    EXPECT_EQ(after->restored.aux, "s1");
    ExpectObservablyEquivalent(after->restored.ws, ws);
  } else {
    EXPECT_EQ(after->restored.aux, "s0");
    ExpectObservablyEquivalent(after->restored.ws, s0->restored.ws);
  }

  // Failure kept the journal, so the retried save rewrites the same
  // chain position and the tip catches up to S1.
  ASSERT_TRUE(writer.Save(ws, {}, "s1").ok());
  Result<RestoredChain> retried = LoadSnapshotChain(scheme, prefix);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried->restored.aux, "s1");
  EXPECT_EQ(retried->deltas_applied, 1u);
  ExpectObservablyEquivalent(retried->restored.ws, ws);

  // The restored tip still answers exactly (watchers vs sweep vs fresh
  // re-intern) over the whole random universe.
  IncrementalVerifier verifier(&retried->restored.ws);
  std::vector<WatchId> ids;
  for (const Dependency& dep : deps) ids.push_back(verifier.Watch(dep));
  CheckAgreement(retried->restored.ws, verifier, deps, ids);
}

TEST_P(SnapshotCrashPropertyTest, CrashedFoldKeepsACompleteChainLoadable) {
  // Folding rewrites the base under the live chain. Its crash safety is
  // by linkage: the new base renames into place *first*, stale deltas
  // are unlinked after — so a crash anywhere in between leaves either
  // the old base with its still-linked delta (old state) or the new
  // base with orphaned deltas that no longer link (new state).
  const std::uint64_t seed = GetParam();
  SplitMix64 rng(seed * 0xBF58476D1CE4E5B9ull + 11);
  SchemePtr scheme = RandomScheme(rng);
  InternedWorkspace ws(scheme);
  std::vector<ValueId> pool;
  MutateBatch(ws, rng, pool, 3 + rng.Below(6));

  std::string prefix = ::testing::TempDir() + "/ccfp_crash_fold_" +
                       std::to_string(seed);
  SnapshotChainWriter writer(prefix);
  ASSERT_TRUE(writer.Save(ws).ok());  // base: S0
  do {  // deltas S1..Sk, until the next save folds (by count or bytes)
    MutateBatch(ws, rng, pool, 1 + rng.Below(4));
    ASSERT_TRUE(writer.Save(ws).ok());
  } while (!NextSaveFolds(writer));
  const std::size_t k = writer.delta_count();
  ASSERT_GE(k, 1u);
  Result<RestoredChain> sk = LoadSnapshotChain(scheme, prefix);
  ASSERT_TRUE(sk.ok()) << sk.status();
  ASSERT_EQ(sk->deltas_applied, k);

  MutateBatch(ws, rng, pool, 1 + rng.Below(4));  // the fold's new state
  FaultSite site = kCrashSites[seed % 4];
  FaultInjector fi(seed * 3 + 1);
  fi.Arm(site, 0);
  Status crashed;
  {
    ScopedFaultInjector scope(&fi);
    crashed = writer.Save(ws);
  }
  ASSERT_EQ(fi.fired(site), 1u);
  ASSERT_FALSE(crashed.ok());

  Result<RestoredChain> after = LoadSnapshotChain(scheme, prefix);
  ASSERT_TRUE(after.ok()) << after.status();
  if (site == FaultSite::kSnapshotRename) {
    // New base landed; the old deltas survive on disk but their base
    // link no longer matches, so the load treats them as end-of-chain.
    EXPECT_EQ(after->deltas_applied, 0u);
    ExpectObservablyEquivalent(after->restored.ws, ws);
  } else {
    EXPECT_EQ(after->deltas_applied, k);
    ExpectObservablyEquivalent(after->restored.ws, sk->restored.ws);
  }

  // The retried fold completes and sweeps the stale delta files.
  ASSERT_TRUE(writer.Save(ws).ok());
  EXPECT_EQ(writer.delta_count(), 0u) << "the retried save must fold";
  EXPECT_FALSE(std::ifstream(writer.DeltaPath(1)).good())
      << "fold left a stale delta file behind";
  Result<RestoredChain> folded = LoadSnapshotChain(scheme, prefix);
  ASSERT_TRUE(folded.ok()) << folded.status();
  EXPECT_EQ(folded->deltas_applied, 0u);
  ExpectObservablyEquivalent(folded->restored.ws, ws);
}

TEST_P(SnapshotCrashPropertyTest, WarmReloadAfterMidSaveCrashMatchesControl) {
  // The acceptance scenario: a session checkpointing through a delta
  // chain crashes mid-save, is warm-reloaded from the chain tip's
  // classification record (no oracle replay of the persisted prefix),
  // and from there must be indistinguishable from a control session
  // that never crashed.
  const std::uint64_t seed = GetParam();
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Fd> fds = {MakeFd(*scheme, "R", {"A"}, {"B"}),
                         MakeFd(*scheme, "R", {"B"}, {"C"})};
  UniverseOptions uopts;
  uopts.max_fd_lhs = 2;
  uopts.include_inds = false;
  std::vector<Dependency> universe = EnumerateUniverse(*scheme, uopts);
  ASSERT_GT(universe.size(), 4u);
  FdOracle oracle(scheme);

  ArmstrongSession control(scheme, fds, {}, &oracle);

  std::string prefix = ::testing::TempDir() + "/ccfp_crash_session_" +
                       std::to_string(seed);
  // Each checkpoint's aux carries the whole classification, so the byte
  // trigger folds every few saves: the crash lands on a delta or a fold
  // by seed.
  SnapshotChainWriter chain(prefix);
  ArmstrongSession victim(scheme, fds, {}, &oracle);

  std::size_t crash_at = 1 + seed % (universe.size() - 1);
  FaultSite site = kCrashSites[seed % 4];
  for (std::size_t i = 0; i < universe.size(); ++i) {
    ASSERT_TRUE(control.Extend({universe[i]}).ok());
    if (i < crash_at) {
      ASSERT_TRUE(victim.Extend({universe[i]}).ok());
      ASSERT_TRUE(victim.Checkpoint(chain).ok());
    } else if (i == crash_at) {
      ASSERT_TRUE(victim.Extend({universe[i]}).ok());
      FaultInjector fi(seed);
      fi.Arm(site, 0);
      ScopedFaultInjector scope(&fi);
      Status st = victim.Checkpoint(chain);
      ASSERT_EQ(fi.fired(site), 1u);
      ASSERT_FALSE(st.ok()) << "a crashed checkpoint must fail";
    }
    // i > crash_at: the victim process is dead; only the control runs.
  }

  // Recovery: load the chain, decode the tip's classification record.
  Result<RestoredChain> loaded = LoadSnapshotChain(scheme, prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  Result<SessionClassificationRecord> record =
      DeserializeSessionRecord(*scheme, loaded->restored.aux);
  ASSERT_TRUE(record.ok()) << record.status();
  // The durable tip is the last checkpoint before the crash — or, when
  // the crash hit just after the rename landed, the crashed save itself.
  ASSERT_GE(record->universe.size(), crash_at);
  ASSERT_LE(record->universe.size(), crash_at + 1);
  for (std::size_t i = 0; i < record->universe.size(); ++i) {
    EXPECT_EQ(record->universe[i], universe[i])
        << "persisted classification is not an extend-order prefix";
  }

  // Warm start from the record (zero oracle calls for the persisted
  // prefix), adopt the chain, and re-extend the full universe: known
  // members are no-ops, the lost tail is re-classified.
  SnapshotChainWriter chain2(prefix);
  chain2.Adopt(*loaded);
  ArmstrongSession warm(std::move(loaded->restored.ws), record.MoveValue(),
                        fds, {}, &oracle);
  std::size_t folds = 0;
  for (const Dependency& dep : universe) {
    ASSERT_TRUE(warm.Extend({dep}).ok()) << dep.ToString(*scheme);
    ASSERT_TRUE(warm.Checkpoint(chain2).ok()) << dep.ToString(*scheme);
    folds += chain2.delta_count() == 0 ? 1 : 0;
  }
  EXPECT_GT(folds, 0u) << "the recovered chain never folded";

  ASSERT_EQ(warm.universe().size(), control.universe().size());
  EXPECT_EQ(warm.expected(), control.expected());
  EXPECT_FALSE(
      ObeysExactly(warm.Snapshot(), warm.universe(), warm.expected())
          .has_value())
      << "warm-reloaded session disagrees with the fresh sweep re-check";

  // And the recovered session's own checkpoints are durable in turn.
  Result<RestoredChain> final_chain = LoadSnapshotChain(scheme, prefix);
  ASSERT_TRUE(final_chain.ok()) << final_chain.status();
  Result<SessionClassificationRecord> final_record =
      DeserializeSessionRecord(*scheme, final_chain->restored.aux);
  ASSERT_TRUE(final_record.ok()) << final_record.status();
  EXPECT_EQ(final_record->universe.size(), warm.universe().size());
  std::vector<Dependency> persisted_expected;
  for (std::size_t i = 0; i < final_record->universe.size(); ++i) {
    if (final_record->expected[i]) {
      persisted_expected.push_back(final_record->universe[i]);
    }
  }
  EXPECT_EQ(persisted_expected, warm.expected());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotCrashPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace ccfp
