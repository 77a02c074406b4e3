// Unit tests for the workspace snapshot layer (core/snapshot.h): the
// round-trip contract (a restored workspace is observably identical,
// including its warm partition capital), the damage contract (every
// single-bit flip and every truncation is InvalidArgument, never a crash
// or a half-restored workspace), the chain file round-trip with on-disk
// damage caught at load, the delta guard against registered feed
// cursors, and the injected save-side faults (util/fault.h) the recovery
// suites lean on.
#include "core/snapshot.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/workspace.h"
#include "tests/trace_util.h"
#include "util/fault.h"
#include "util/rng.h"
#include "verify/verifier.h"

namespace ccfp {
namespace {

using testutil::AppendRandomTuple;
using testutil::MergeRandomValues;
using testutil::RandomUniverse;

SchemePtr TwoRelScheme() {
  return MakeScheme({{"R0", {"A", "B", "C"}}, {"R1", {"A", "B"}}});
}

/// A small but non-trivial workspace: appends, merges (kills + rewrites),
/// and partitions compiled through the sweep engine — every serialized
/// section is exercised.
InternedWorkspace PopulatedWorkspace(const SchemePtr& scheme,
                                     std::vector<Dependency>* deps_out) {
  SplitMix64 rng(2026);
  InternedWorkspace ws(scheme);
  std::vector<ValueId> pool;
  for (int i = 0; i < 12; ++i) AppendRandomTuple(ws, rng, pool);
  for (int i = 0; i < 4; ++i) MergeRandomValues(ws, rng, pool);
  for (int i = 0; i < 6; ++i) AppendRandomTuple(ws, rng, pool);
  std::vector<Dependency> deps = RandomUniverse(scheme, rng, 8);
  for (const Dependency& dep : deps) ws.Satisfies(dep);  // compile partitions
  if (deps_out != nullptr) *deps_out = std::move(deps);
  return ws;
}

/// Observable equality: same materialization, same feed window, same
/// verdicts and witnesses, same substrate counters.
void ExpectObservablyEqual(const InternedWorkspace& a,
                           const InternedWorkspace& b,
                           const std::vector<Dependency>& deps) {
  EXPECT_EQ(a.Materialize().ToString(), b.Materialize().ToString());
  for (RelId rel = 0; rel < a.scheme().size(); ++rel) {
    EXPECT_EQ(a.EventCount(rel), b.EventCount(rel));
    EXPECT_EQ(a.FeedBase(rel), b.FeedBase(rel));
  }
  for (const Dependency& dep : deps) {
    EXPECT_EQ(a.Satisfies(dep), b.Satisfies(dep))
        << dep.ToString(a.scheme());
    std::optional<IdViolation> va = a.FindViolation(dep);
    std::optional<IdViolation> vb = b.FindViolation(dep);
    ASSERT_EQ(va.has_value(), vb.has_value()) << dep.ToString(a.scheme());
    if (va.has_value()) {
      EXPECT_EQ(va->rel, vb->rel);
      EXPECT_EQ(va->tuple_indices, vb->tuple_indices);
    }
  }
  EXPECT_EQ(a.stats().tuples_appended, b.stats().tuples_appended);
  EXPECT_EQ(a.stats().tuples_killed, b.stats().tuples_killed);
  EXPECT_EQ(a.stats().values_interned, b.stats().values_interned);
  EXPECT_EQ(a.stats().value_merges, b.stats().value_merges);
  EXPECT_EQ(a.stats().partitions_built, b.stats().partitions_built);
  EXPECT_EQ(a.MemoryUsage().tuple_store, b.MemoryUsage().tuple_store);
  EXPECT_EQ(a.MemoryUsage().occurrences, b.MemoryUsage().occurrences);
}

TEST(SnapshotTest, EmptyWorkspaceRoundTrip) {
  SchemePtr scheme = TwoRelScheme();
  InternedWorkspace ws(scheme);
  Result<RestoredWorkspace> restored =
      DeserializeWorkspace(scheme, SerializeWorkspace(ws));
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(restored->consumer_cursors.empty());
  ExpectObservablyEqual(ws, restored->ws, {});
}

TEST(SnapshotTest, PopulatedRoundTripIsObservablyIdentical) {
  SchemePtr scheme = TwoRelScheme();
  std::vector<Dependency> deps;
  InternedWorkspace ws = PopulatedWorkspace(scheme, &deps);

  std::vector<std::vector<std::uint64_t>> cursors = {
      {ws.EventCount(0), ws.EventCount(1)}, {3, 0}};
  std::string blob = SerializeWorkspace(ws, cursors);
  Result<RestoredWorkspace> restored = DeserializeWorkspace(scheme, blob);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->consumer_cursors, cursors);
  ExpectObservablyEqual(ws, restored->ws, deps);
}

TEST(SnapshotTest, RestoredPartitionsAreWarmCapital) {
  // Re-checking a dependency whose partition came from the snapshot must
  // reuse it — no rebuild, or the warm start is warm in name only.
  SchemePtr scheme = TwoRelScheme();
  std::vector<Dependency> deps;
  InternedWorkspace ws = PopulatedWorkspace(scheme, &deps);
  Result<RestoredWorkspace> restored =
      DeserializeWorkspace(scheme, SerializeWorkspace(ws));
  ASSERT_TRUE(restored.ok()) << restored.status();

  std::uint64_t built_before = restored->ws.stats().partitions_built;
  for (const Dependency& dep : deps) restored->ws.Satisfies(dep);
  EXPECT_EQ(restored->ws.stats().partitions_built, built_before)
      << "restored partitions were rebuilt instead of reused";
}

TEST(SnapshotTest, SaveLoadSaveIsByteIdentical) {
  // Partitions compiled *before* the merges, so the repairs leave
  // tombstoned groups behind; a record must not depend on the order keys
  // were hashed in, so a restored workspace re-saves to the same bytes.
  SchemePtr scheme = TwoRelScheme();
  SplitMix64 rng(77);
  InternedWorkspace ws(scheme);
  std::vector<ValueId> pool;
  for (int i = 0; i < 40; ++i) AppendRandomTuple(ws, rng, pool);
  std::vector<Dependency> deps = RandomUniverse(scheme, rng, 12);
  for (const Dependency& dep : deps) ws.Satisfies(dep);
  for (int i = 0; i < 8; ++i) MergeRandomValues(ws, rng, pool);
  for (int i = 0; i < 10; ++i) AppendRandomTuple(ws, rng, pool);
  for (const Dependency& dep : deps) ws.Satisfies(dep);
  ASSERT_GT(ws.stats().tuples_killed, 0u);
  ASSERT_GT(ws.stats().partition_slots_repaired, 0u);
  bool tombstone = false;
  for (RelId rel = 0; rel < scheme->size(); ++rel) {
    std::vector<AttrId> all(scheme->relation(rel).arity());
    for (AttrId a = 0; a < all.size(); ++a) all[a] = a;
    for (const std::vector<AttrId>& cols :
         {std::vector<AttrId>{0}, std::vector<AttrId>{1}, all}) {
      const InternedWorkspace::Partition& p = ws.partition(rel, cols);
      tombstone = tombstone || p.alive_groups < p.group_count;
    }
  }
  ASSERT_TRUE(tombstone) << "the trace must tombstone a partition group";

  std::string first = SerializeWorkspace(ws, {{1, 2}}, "aux");
  Result<RestoredWorkspace> restored = DeserializeWorkspace(scheme, first);
  ASSERT_TRUE(restored.ok()) << restored.status();
  std::string second = SerializeWorkspace(restored->ws, {{1, 2}}, "aux");
  EXPECT_TRUE(first == second) << "re-saved record differs";
}

/// Byte surgery on a full record of one relation R(A, B) with a single
/// cached partition, on {A}: that partition's keys are the last section
/// before the stats (11 u64), an empty cursor list (u64) and an empty aux
/// string (u64). Each key entry is (id, group), 4 bytes each.
class PartitionKeyRecord {
 public:
  static constexpr std::size_t kHeader = 26;  // magic, version, size, sum
  static constexpr std::size_t kTail = 11 * 8 + 8 + 8;

  PartitionKeyRecord() : scheme_(MakeScheme({{"R", {"A", "B"}}})) {
    InternedWorkspace ws(scheme_);
    for (std::int64_t i = 0; i < 6; ++i) {
      ws.AppendTuple(0, {Value::Int(i % 4), Value::Int(i)});
    }
    groups_ = ws.partition(0, {0}).group_count;
    blob_ = SerializeWorkspace(ws);
    payload_ = blob_.substr(kHeader);
  }

  const SchemePtr& scheme() const { return scheme_; }
  const std::string& blob() const { return blob_; }
  std::uint32_t groups() const { return groups_; }

  /// Offset in the payload of key entry `i`.
  std::size_t Entry(std::uint32_t i) const {
    return payload_.size() - kTail - (groups_ - i) * 8;
  }
  std::uint32_t U32At(std::size_t off) const {
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) {
      v |= std::uint32_t{static_cast<std::uint8_t>(payload_[off + b])}
           << (8 * b);
    }
    return v;
  }
  void SetU32(std::size_t off, std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      payload_[off + b] = static_cast<char>(v >> (8 * b));
    }
  }
  /// Drops the last key entry and decrements the key count.
  void DropLastKey() {
    std::size_t count_at = Entry(0) - 8;
    payload_.erase(Entry(groups_ - 1), 8);
    SetU32(count_at, U32At(count_at) - 1);
  }

  /// The edited payload under a valid header.
  std::string Encode() const {
    std::string out = blob_.substr(0, 10);  // magic + version
    std::uint64_t size = payload_.size();
    std::uint64_t sum = Fnv1a64(payload_);
    for (int b = 0; b < 8; ++b) out += static_cast<char>(size >> (8 * b));
    for (int b = 0; b < 8; ++b) out += static_cast<char>(sum >> (8 * b));
    return out + payload_;
  }

 private:
  SchemePtr scheme_;
  std::uint32_t groups_ = 0;
  std::string blob_;
  std::string payload_;
};

TEST(SnapshotTest, PartitionKeysLoadInAnyOrder) {
  // A record whose keys are not in group order (as written in hash-table
  // order before keys were swept by group) loads, and re-saves in group
  // order.
  PartitionKeyRecord rec;
  ASSERT_EQ(rec.groups(), 4u);
  ASSERT_EQ(rec.Encode(), rec.blob());  // the surgery's offsets are right
  for (std::uint32_t g = 0; g < rec.groups(); ++g) {
    ASSERT_EQ(rec.U32At(rec.Entry(g) + 4), g) << "keys saved by group";
  }
  PartitionKeyRecord reversed;
  for (std::uint32_t i = 0; i < rec.groups(); ++i) {
    std::uint32_t from = rec.groups() - 1 - i;
    reversed.SetU32(reversed.Entry(i), rec.U32At(rec.Entry(from)));
    reversed.SetU32(reversed.Entry(i) + 4, rec.U32At(rec.Entry(from) + 4));
  }
  Result<RestoredWorkspace> restored =
      DeserializeWorkspace(rec.scheme(), reversed.Encode());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(SerializeWorkspace(restored->ws) == rec.blob());
}

TEST(SnapshotTest, PartitionKeysMustNameEveryGroupOnce) {
  auto expect_rejected = [](const PartitionKeyRecord& rec,
                            const std::string& what) {
    Result<RestoredWorkspace> restored =
        DeserializeWorkspace(rec.scheme(), rec.Encode());
    ASSERT_FALSE(restored.ok()) << what;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(restored.status().message(), "workspace snapshot: " + what);
  };
  PartitionKeyRecord missing;
  missing.DropLastKey();
  expect_rejected(missing, "partition key count mismatch");

  PartitionKeyRecord twice;  // group 0 named twice, group 1 never
  twice.SetU32(twice.Entry(1) + 4, 0);
  expect_rejected(twice, "duplicate partition key group");

  PartitionKeyRecord same_key;  // groups 0 and 1 under one key
  same_key.SetU32(same_key.Entry(1), same_key.U32At(same_key.Entry(0)));
  expect_rejected(same_key, "duplicate partition key");

  PartitionKeyRecord out_of_range;
  out_of_range.SetU32(out_of_range.Entry(2) + 4, out_of_range.groups());
  expect_rejected(out_of_range, "partition key group out of range");
}

TEST(SnapshotTest, SchemeMismatchRejected) {
  SchemePtr scheme = TwoRelScheme();
  InternedWorkspace ws(scheme);
  std::string blob = SerializeWorkspace(ws);
  SchemePtr other = MakeScheme({{"S0", {"A", "B", "C"}}, {"S1", {"A", "B"}}});
  Result<RestoredWorkspace> restored = DeserializeWorkspace(other, blob);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, EverySingleBitFlipRejected) {
  // The whole blob is covered: magic/version/size by explicit checks,
  // the checksum field and every payload byte by FNV mismatch. No flip
  // may be silently accepted.
  SchemePtr scheme = TwoRelScheme();
  std::vector<Dependency> deps;
  InternedWorkspace ws = PopulatedWorkspace(scheme, &deps);
  std::string blob = SerializeWorkspace(ws, {{1, 2}});

  for (std::size_t off = 0; off < blob.size(); ++off) {
    std::string damaged = blob;
    damaged[off] = static_cast<char>(damaged[off] ^ (1 << (off % 8)));
    Result<RestoredWorkspace> restored = DeserializeWorkspace(scheme, damaged);
    ASSERT_FALSE(restored.ok()) << "bit flip at offset " << off
                                << " was accepted";
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << "offset " << off << ": " << restored.status();
  }
}

TEST(SnapshotTest, EveryTruncationRejected) {
  SchemePtr scheme = TwoRelScheme();
  InternedWorkspace ws = PopulatedWorkspace(scheme, nullptr);
  std::string blob = SerializeWorkspace(ws);

  for (std::size_t len = 0; len < blob.size(); ++len) {
    Result<RestoredWorkspace> restored =
        DeserializeWorkspace(scheme, std::string_view(blob).substr(0, len));
    ASSERT_FALSE(restored.ok()) << "truncation to " << len << " bytes "
                                << "was accepted";
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(DeserializeWorkspace(scheme, blob).ok());
}

TEST(SnapshotTest, TrailingBytesRejected) {
  SchemePtr scheme = TwoRelScheme();
  InternedWorkspace ws = PopulatedWorkspace(scheme, nullptr);
  std::string blob = SerializeWorkspace(ws) + std::string(1, '\0');
  Result<RestoredWorkspace> restored = DeserializeWorkspace(scheme, blob);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, FileRoundTrip) {
  SchemePtr scheme = TwoRelScheme();
  std::vector<Dependency> deps;
  InternedWorkspace ws = PopulatedWorkspace(scheme, &deps);
  std::string prefix = ::testing::TempDir() + "/ccfp_snapshot_roundtrip";

  SnapshotChainWriter writer(prefix);
  ASSERT_TRUE(writer.Save(ws, {{7}}).ok());
  ASSERT_TRUE(writer.has_base());
  Result<RestoredChain> restored = LoadSnapshotChain(scheme, prefix);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->restored.consumer_cursors,
            (std::vector<std::vector<std::uint64_t>>{{7}}));
  ExpectObservablyEqual(ws, restored->restored.ws, deps);

  // The on-disk base is checked against the loader's scheme too.
  Result<RestoredChain> foreign = LoadSnapshotChain(
      MakeScheme({{"R0", {"A", "B", "C"}}, {"R1", {"A", "C"}}}), prefix);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  SchemePtr scheme = TwoRelScheme();
  Result<RestoredChain> restored = LoadSnapshotChain(
      scheme, ::testing::TempDir() + "/ccfp_snapshot_does_not_exist");
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kNotFound);
}

/// Saves a chain base, damages it on disk at `site`, and expects the
/// chain load to refuse it.
void ExpectDamagedBaseRejected(FaultSite site, std::uint64_t seed,
                               const std::string& name) {
  SchemePtr scheme = TwoRelScheme();
  InternedWorkspace ws = PopulatedWorkspace(scheme, nullptr);
  std::string prefix = ::testing::TempDir() + "/" + name;
  SnapshotChainWriter writer(prefix);
  ASSERT_TRUE(writer.Save(ws).ok());
  ASSERT_TRUE(LoadSnapshotChain(scheme, prefix).ok());

  FaultInjector fi(seed);
  testutil::DamageFileInPlace(writer.BasePath(), fi, site);
  Result<RestoredChain> restored = LoadSnapshotChain(scheme, prefix);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, InjectedCorruptionIsDetectedAtLoad) {
  // Bit rot between save and load: the save succeeded, the load must
  // reject. (A fault injected *during* a save never reaches the target —
  // snapshot_crash_property_test covers that side.)
  ExpectDamagedBaseRejected(FaultSite::kSnapshotCorrupt, 99,
                            "ccfp_snapshot_corrupt");
}

TEST(SnapshotTest, InjectedTruncationIsDetectedAtLoad) {
  // A record cut short on disk.
  ExpectDamagedBaseRejected(FaultSite::kSnapshotTruncate, 7,
                            "ccfp_snapshot_truncated");
}

TEST(SnapshotTest, UnarmedInjectorIsInvisible) {
  // An installed but unarmed injector must not perturb the bytes.
  SchemePtr scheme = TwoRelScheme();
  std::vector<Dependency> deps;
  InternedWorkspace ws = PopulatedWorkspace(scheme, &deps);
  std::string prefix = ::testing::TempDir() + "/ccfp_snapshot_unarmed";

  FaultInjector fi(1);
  {
    ScopedFaultInjector scope(&fi);
    ASSERT_TRUE(SnapshotChainWriter(prefix).Save(ws).ok());
  }
  Result<RestoredChain> restored = LoadSnapshotChain(scheme, prefix);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectObservablyEqual(ws, restored->restored.ws, deps);
}

TEST(SnapshotTest, DeltaRefusesATargetWithFeedCursors) {
  // A delta's journaled feed trim ignores feed cursors, so a target with
  // a registered consumer is refused before anything changes — with
  // InvalidArgument, never the "end of chain" FailedPrecondition.
  SchemePtr scheme = TwoRelScheme();
  InternedWorkspace live = PopulatedWorkspace(scheme, nullptr);
  Result<RestoredWorkspace> target =
      DeserializeWorkspace(scheme, SerializeWorkspace(live));
  ASSERT_TRUE(target.ok()) << target.status();
  live.MarkJournalPersisted(target->snapshot_id);
  live.EnableJournal();
  live.Append(1, {live.Intern(Value::Int(77)), live.Intern(Value::Str("t"))});
  live.CompactFeeds();
  bool trims = false;
  for (const WorkspaceJournalEntry& e : live.journal()) {
    trims |= e.op == WorkspaceJournalEntry::Op::kTrim;
  }
  ASSERT_TRUE(trims) << "the delta must carry a feed trim";
  Result<std::string> delta = SerializeWorkspaceDelta(live);
  ASSERT_TRUE(delta.ok()) << delta.status();

  InternedWorkspace& ws = target->ws;
  Database before = ws.Materialize();
  std::vector<std::uint64_t> events;
  for (RelId rel = 0; rel < scheme->size(); ++rel) {
    events.push_back(ws.EventCount(rel));
  }
  {
    IncrementalVerifier verifier(&ws);
    Result<WorkspaceDeltaInfo> refused = ApplyWorkspaceDelta(ws, *delta);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(ws.Materialize(), before);
    for (RelId rel = 0; rel < scheme->size(); ++rel) {
      EXPECT_EQ(ws.EventCount(rel), events[rel]);
    }
  }
  // With the consumer gone the same delta applies.
  ASSERT_TRUE(ApplyWorkspaceDelta(ws, *delta).ok());
  EXPECT_EQ(ws.Materialize(), live.Materialize());
}

TEST(SnapshotChainLockTest, ExcludesSecondHolderUntilReleased) {
  std::string prefix = ::testing::TempDir() + "/ccfp_chain_lock_excl";
  std::remove(SnapshotChainLock::LockPath(prefix).c_str());

  SnapshotChainLock a;
  ASSERT_TRUE(a.Acquire(prefix).ok());
  EXPECT_TRUE(a.held());
  EXPECT_FALSE(a.adopted_stale());

  // flock ownership follows the open file description, so a second open
  // in the same process contends exactly like another process would.
  SnapshotChainLock b;
  Status contested = b.Acquire(prefix);
  ASSERT_FALSE(contested.ok());
  EXPECT_EQ(contested.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(contested.message().find("locked by live pid"),
            std::string::npos);
  EXPECT_FALSE(b.held());

  a.Release();
  EXPECT_FALSE(a.held());
  // A clean release clears the pid stamp: the takeover is not "stale".
  ASSERT_TRUE(b.Acquire(prefix).ok());
  EXPECT_FALSE(b.adopted_stale());
}

TEST(SnapshotChainLockTest, DetectsStaleStampFromDeadHolder) {
  std::string prefix = ::testing::TempDir() + "/ccfp_chain_lock_stale";
  std::string lock_path = SnapshotChainLock::LockPath(prefix);
  // A dead holder: its pid stamp is on disk but the kernel dropped its
  // flock when it exited — simulated by writing the stamp with no lock.
  {
    std::ofstream out(lock_path, std::ios::trunc);
    out << 999999 << "\n";
  }
  SnapshotChainLock lock;
  ASSERT_TRUE(lock.Acquire(prefix).ok());
  EXPECT_TRUE(lock.adopted_stale());
  lock.Release();

  // The adoption re-stamped and then cleanly cleared; a fresh acquisition
  // sees nothing stale.
  ASSERT_TRUE(lock.Acquire(prefix).ok());
  EXPECT_FALSE(lock.adopted_stale());
}

TEST(SnapshotChainLockTest, ExclusiveWriterLocksOnFirstSave) {
  SchemePtr scheme = TwoRelScheme();
  InternedWorkspace ws = PopulatedWorkspace(scheme, nullptr);
  std::string prefix = ::testing::TempDir() + "/ccfp_chain_lock_writer";
  std::remove(SnapshotChainLock::LockPath(prefix).c_str());

  SnapshotChainPolicy exclusive;
  exclusive.exclusive = true;
  SnapshotChainWriter first(prefix, exclusive);
  EXPECT_FALSE(first.lock().held());  // construction never contends
  ASSERT_TRUE(first.Save(ws).ok());
  EXPECT_TRUE(first.lock().held());

  // A second exclusive writer on the same chain is refused before it
  // writes a byte; a default (non-exclusive) writer keeps the historical
  // free-for-all the crash-interleaving tests rely on.
  SnapshotChainWriter second(prefix, exclusive);
  Status refused = second.Save(ws);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(second.has_base());

  SnapshotChainWriter carefree(prefix);
  EXPECT_TRUE(carefree.Save(ws).ok());
}

TEST(SnapshotChainTest, RootedChainWritesDeltasOnlyAndRejectsDamage) {
  // A chain rooted at an external record: no `.base` ever, each record a
  // delta, loads replay onto the caller's root, the fold collapses the
  // chain into one delta, and every damage case still fails the load.
  SchemePtr scheme = TwoRelScheme();
  InternedWorkspace base = PopulatedWorkspace(scheme, nullptr);
  constexpr std::uint64_t kRoot = 0x5eed;
  auto root = [&] {
    InternedWorkspace ws = base.Fork();
    ws.MarkJournalPersisted(kRoot);
    return ws;
  };
  std::string prefix = ::testing::TempDir() + "/ccfp_rooted_chain";
  SnapshotChainWriter writer = SnapshotChainWriter::RootedAt(prefix, kRoot);

  // A workspace that is not journaling from the root is refused, and
  // nothing is written.
  InternedWorkspace stray = base.Fork();
  Status refused = writer.Save(stray);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);

  InternedWorkspace live = root();
  live.EnableJournal();
  auto append = [&](std::int64_t k) {
    live.Append(1, {live.Intern(Value::Int(9000 + k)),
                    live.Intern(Value::Str("x" + std::to_string(k)))});
  };
  constexpr std::int64_t kFull = SnapshotChainWriter::kMaxDeltas;
  for (std::int64_t k = 0; k < kFull; ++k) {
    append(k);
    ASSERT_TRUE(writer.Save(live).ok());
  }
  EXPECT_FALSE(std::ifstream(writer.BasePath()).good());
  EXPECT_EQ(writer.delta_count(), SnapshotChainWriter::kMaxDeltas);

  Result<RestoredChain> chain = LoadSnapshotChain(scheme, prefix, root());
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_EQ(chain->deltas_applied, SnapshotChainWriter::kMaxDeltas);
  EXPECT_EQ(chain->base_bytes, 0u);
  EXPECT_EQ(chain->restored.ws.Materialize(), live.Materialize());

  // A root without a record identity is refused; a root at another
  // record links to none of the deltas, so the chain ends at the root.
  Result<RestoredChain> anonymous =
      LoadSnapshotChain(scheme, prefix, base.Fork());
  ASSERT_FALSE(anonymous.ok());
  EXPECT_EQ(anonymous.status().code(), StatusCode::kFailedPrecondition);
  InternedWorkspace other = base.Fork();
  other.MarkJournalPersisted(kRoot + 1);
  Result<RestoredChain> unlinked =
      LoadSnapshotChain(scheme, prefix, std::move(other));
  ASSERT_TRUE(unlinked.ok()) << unlinked.status();
  EXPECT_EQ(unlinked->deltas_applied, 0u);
  EXPECT_EQ(unlinked->restored.ws.Materialize(), base.Materialize());

  // Past kMaxDeltas the chain collapses into one delta over the root.
  append(kFull);
  ASSERT_TRUE(writer.Save(live).ok());
  EXPECT_EQ(writer.delta_count(), 1u);
  EXPECT_FALSE(std::ifstream(writer.DeltaPath(2)).good());
  chain = LoadSnapshotChain(scheme, prefix, root());
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_EQ(chain->deltas_applied, 1u);
  EXPECT_EQ(chain->restored.ws.Materialize(), live.Materialize());

  // Damage in a delta fails the load (never a silent end of chain).
  append(kFull + 1);
  ASSERT_TRUE(writer.Save(live).ok());
  FaultInjector fi(5);
  testutil::DamageFileInPlace(writer.DeltaPath(2), fi,
                              FaultSite::kSnapshotCorrupt);
  Result<RestoredChain> damaged = LoadSnapshotChain(scheme, prefix, root());
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kInvalidArgument);

  // A collapse that meets the damaged record fails and keeps the
  // journal, so nothing unpersisted is lost.
  for (std::int64_t k = kFull + 2; writer.delta_count() < kFull; ++k) {
    append(k);
    ASSERT_TRUE(writer.Save(live).ok());
  }
  append(2 * kFull + 1);
  Status collapse = writer.Save(live);
  ASSERT_FALSE(collapse.ok());
  EXPECT_EQ(collapse.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(live.journal().empty());
}

}  // namespace
}  // namespace ccfp
