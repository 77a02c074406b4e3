#ifndef CCFP_CORE_SNAPSHOT_H_
#define CCFP_CORE_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/workspace.h"
#include "util/status.h"

namespace ccfp {

/// Versioned, checksummed serialization of an InternedWorkspace — the
/// persistence layer that lets a restarted ArmstrongSession or solver
/// warm-start with no re-interning.
///
/// ## What a full snapshot carries
///
/// The *entire* mutable substrate, bit-for-bit restorable:
///   * the value interner (values in id order + the fresh-null watermark),
///     so restored ids mean exactly what they meant;
///   * the union-find arrays (parent/size/rep), preserving both the merge
///     classes and their semantic representatives;
///   * every relation's tuple slots with alive flags, its compaction
///     horizon, and its retained change feed — dedup indexes are rebuilt
///     from the alive slots at load;
///   * the per-id occurrence lists, serialized *exactly* (not rebuilt):
///     their order feeds the chase's deterministic dirty worklists, and a
///     rebuild could reorder them;
///   * every compiled projection partition, including tombstoned groups
///     and stable group ids — the capital a warm start is meant to keep.
///     Its keys are written in group order (a sweep of the key arena), so
///     a record's bytes depend only on the workspace's content and a
///     save -> load -> save round trip is byte-identical. The loader takes
///     keys in any order but requires exactly one key per group;
///   * the substrate Stats, so a restored session reports continuously;
///   * caller-supplied consumer cursors (e.g. a verifier's per-relation
///     feed positions), so delta consumers resume where they stopped;
///   * an opaque caller `aux` record (e.g. an ArmstrongSession's universe
///     classification — see SessionClassificationRecord).
///
/// Registered feed cursors are NOT serialized: they belong to live
/// consumer objects, which are gone after a restart and re-register.
///
/// ## Wire format (version 2)
///
///   magic "CCFPWS" | u32 version | u64 payload_size | u64 fnv1a64(payload)
///   | payload
///
/// All integers little-endian, assembled byte by byte from shifts (no
/// aliasing, no endianness traps under the sanitizers). The payload opens with a record
/// kind byte — full (0) or delta (1) — followed by a fingerprint of the
/// scheme; load rejects a snapshot taken under a different scheme. Any
/// damage — bad magic, unknown version, size mismatch, checksum mismatch,
/// out-of-bounds ids, truncation anywhere — yields InvalidArgument, never
/// a crash and never a half-restored workspace.
///
/// A record's *identity* is its header checksum (fnv1a64 of the payload).
/// A delta record embeds the identity of its predecessor, so a chain of
/// records is hash-linked: a delta left behind by a crashed fold can never
/// be mistaken for part of the new chain.
///
/// ## Delta records
///
/// A delta serializes only what changed since the last persisted record:
/// the interner growth (new values + the fresh-null watermark) and the
/// workspace's retained mutation journal (see
/// InternedWorkspace::EnableJournal). Applying a delta replays the journal
/// through the public mutation API, which reproduces the observable state
/// exactly — tuple slots, occurrence order, feed windows, stats — and
/// repairs/extends the restored base's compiled partitions along the way.
/// Saving a quiescent session is therefore O(in-flight delta), not
/// O(state).
///
/// ## Crash safety
///
/// Every record is written atomically and durably: serialize to
/// `<path>.tmp`, fsync, rename over `path`, fsync the directory. A crash
/// at any byte offset leaves `path` holding either the complete previous
/// record or the complete new one — never a torn file on the primary
/// path. The installed FaultInjector (util/fault.h) is consulted so every
/// crash instant is testable deterministically:
///   * kSnapshotCorrupt / kSnapshotTruncate — the temp write is torn (the
///     damaged bytes go to the temp file, the save fails before the
///     rename, the target keeps the old state).
///   * kSnapshotFsync — crash before the temp file is durable: the save
///     fails, the target keeps the old state.
///   * kSnapshotRename — crash immediately *after* the rename lands: the
///     target holds the new record, but the saver never observed
///     success (so callers must treat the save as failed and may retry).
///
/// Bit rot on disk is the loader's to catch: any damaged record fails
/// LoadSnapshotChain with InvalidArgument.

/// A deserialized snapshot: the workspace plus the consumer cursors and
/// the opaque aux record the saver embedded.
struct RestoredWorkspace {
  InternedWorkspace ws;
  std::vector<std::vector<std::uint64_t>> consumer_cursors;
  /// The saver's opaque record (empty if none was passed).
  std::string aux;
  /// The record's identity (header checksum) — what the next delta in a
  /// chain must link to.
  std::uint64_t snapshot_id = 0;
};

/// What ApplyWorkspaceDelta decoded from one delta record.
struct WorkspaceDeltaInfo {
  std::uint64_t base_id = 0;  ///< predecessor record this delta extends
  std::uint64_t id = 0;       ///< this record's identity
  std::vector<std::vector<std::uint64_t>> consumer_cursors;
  std::string aux;
};

/// Serializes `ws` (plus optional consumer cursors and an opaque aux
/// record) as a *full* record in the wire format above.
std::string SerializeWorkspace(
    const InternedWorkspace& ws,
    const std::vector<std::vector<std::uint64_t>>& consumer_cursors = {},
    std::string_view aux = {});

/// Serializes the changes since the last persisted record — the interner
/// growth plus the retained mutation journal — as a *delta* record linked
/// to `ws.SnapshotBaseId()`. FailedPrecondition unless the workspace has
/// journaling enabled and a persisted base to link to.
Result<std::string> SerializeWorkspaceDelta(
    const InternedWorkspace& ws,
    const std::vector<std::vector<std::uint64_t>>& consumer_cursors = {},
    std::string_view aux = {});

/// Parses and validates a *full* record; on success the returned workspace
/// is observably identical to the serialized one (same ids, same
/// partitions with the same group ids, same feed window, same stats) and
/// carries the record's identity as its snapshot base (so a delta chain
/// can continue from it). `scheme` must match the saved fingerprint.
Result<RestoredWorkspace> DeserializeWorkspace(SchemePtr scheme,
                                               std::string_view bytes);

/// Validates a *delta* record against `ws` and replays it: applies the
/// interner growth, then the journal through the public mutation API, and
/// re-bases the workspace's snapshot identity onto this record.
/// FailedPrecondition when the delta's base link does not match
/// `ws.SnapshotBaseId()` (a stale record from before a fold) — `ws` is
/// untouched in that case. InvalidArgument, with `ws` untouched, when
/// `ws` has registered feed cursors: a replayed feed trim would strand
/// them behind the compaction horizon, so deltas apply only to a fresh
/// root (a deserialized record or a fork). InvalidArgument on damage; the
/// workspace may then be half-applied and must be discarded (chain loads
/// discard the whole restore).
Result<WorkspaceDeltaInfo> ApplyWorkspaceDelta(InternedWorkspace& ws,
                                               std::string_view bytes);

/// How a SnapshotChainWriter shares its chain prefix.
struct SnapshotChainPolicy {
  /// Acquire a cross-process advisory lock (see SnapshotChainLock) on the
  /// chain prefix before the first Save, and fail FailedPrecondition if
  /// another live process holds it. Off by default: single-process callers
  /// (and the crash tests, which deliberately interleave two writers) get
  /// the historical free-for-all; the solver service turns it on so two
  /// service processes can never interleave writes on one session's chain.
  bool exclusive = false;
};

/// Cross-process advisory lock on a snapshot chain prefix, backed by
/// `flock(2)` on `<prefix>.lock`.
///
/// flock locks are owned by the open file description, so the kernel
/// releases them when the holder exits *for any reason* — a crashed
/// writer can never wedge a chain. The lock file itself is left in place
/// on release (unlinking would race a concurrent acquirer onto a dead
/// inode); instead the holder stamps its pid into the file and truncates
/// the stamp away on clean release. A successful acquisition that finds a
/// foreign pid stamp therefore proves the previous holder died while
/// holding the lock — surfaced as `adopted_stale()` so callers can log
/// the takeover or distrust in-flight partial state.
class SnapshotChainLock {
 public:
  SnapshotChainLock() = default;
  ~SnapshotChainLock() { Release(); }
  SnapshotChainLock(SnapshotChainLock&& other) noexcept;
  SnapshotChainLock& operator=(SnapshotChainLock&& other) noexcept;
  SnapshotChainLock(const SnapshotChainLock&) = delete;
  SnapshotChainLock& operator=(const SnapshotChainLock&) = delete;

  /// Acquires `<prefix>.lock` without blocking. FailedPrecondition when
  /// another live process (or another open lock in this process) holds
  /// it — the message names the holder's pid stamp. Any prior lock this
  /// object held is released first.
  Status Acquire(const std::string& prefix);

  /// Unlocks and clears the pid stamp. Safe to call when not held.
  void Release();

  bool held() const { return fd_ >= 0; }
  /// True when the acquisition found a live pid stamp from a holder that
  /// died without releasing (the kernel had already dropped its flock).
  bool adopted_stale() const { return adopted_stale_; }

  static std::string LockPath(const std::string& prefix);

 private:
  int fd_ = -1;
  std::string path_;
  bool adopted_stale_ = false;
};

/// A chain restored from disk: the replayed workspace plus enough
/// bookkeeping for a SnapshotChainWriter to continue the chain.
struct RestoredChain {
  RestoredWorkspace restored;  ///< cursors/aux are the *tip* record's
  std::size_t deltas_applied = 0;
  std::uint64_t base_bytes = 0;  ///< 0 for an externally rooted chain
  std::uint64_t delta_bytes = 0;  ///< cumulative on-disk delta bytes
};

/// Owns the on-disk layout of one snapshot chain: `<prefix>.base` plus
/// `<prefix>.delta.1`, `<prefix>.delta.2`, ... Every record is written
/// atomically and durably (see "Crash safety" above), and the workspace's
/// journal is marked persisted only after a durable success — a save that
/// fails (or "crashes" via the injector) keeps the journal, and the
/// retried save simply rewrites a superset record at the same chain
/// position.
///
/// `Save` writes a full base on the first call (enabling the workspace's
/// journal for subsequent deltas), then deltas, and folds the chain back
/// into a fresh base once it holds kMaxDeltas deltas or its delta bytes
/// pass kFoldDeltaPercent of the base's. Folding is crash-safe by
/// linkage: the new base is renamed into place first and stale delta
/// files are deleted best-effort afterwards — a crash in between leaves
/// deltas whose base link no longer matches, which loads treat as
/// end-of-chain.
///
/// A chain made by `RootedAt` has no `.base` file: its record 0 is a state
/// the caller keeps elsewhere (a shared core's sealed base; see
/// service/shared_core.h) and hands LoadSnapshotChain as `root`, so every
/// record it writes is a delta and its size follows the workspace's own
/// mutations, not the root's. Its first Save removes whatever an earlier
/// writer left under the prefix. It folds on kMaxDeltas alone (there is
/// no base to weigh the deltas against) by collapsing the whole chain into
/// one delta linked to the root, written over `.delta.1`.
class SnapshotChainWriter {
 public:
  /// Fold after this many deltas (each load replays every delta, so this
  /// caps restore cost).
  static constexpr std::size_t kMaxDeltas = 8;
  /// Fold a based chain when its cumulative on-disk delta bytes exceed
  /// this percentage of the base's bytes.
  static constexpr std::uint32_t kFoldDeltaPercent = 50;

  explicit SnapshotChainWriter(std::string prefix,
                               SnapshotChainPolicy policy = {});

  /// A chain rooted at the external record `root_id`. Save then requires
  /// a workspace journaling from the chain tip — at first, one marked
  /// persisted as `root_id` (InternedWorkspace::MarkJournalPersisted) —
  /// and refuses any other with FailedPrecondition.
  static SnapshotChainWriter RootedAt(std::string prefix,
                                      std::uint64_t root_id,
                                      SnapshotChainPolicy policy = {});

  /// Writes the next chain record for `ws` (base, delta or fold, as
  /// above). On success the workspace journal is marked persisted.
  Status Save(const InternedWorkspace& ws,
              const std::vector<std::vector<std::uint64_t>>&
                  consumer_cursors = {},
              std::string_view aux = {});

  /// Continues a chain restored by LoadSnapshotChain (with a `root`
  /// exactly when this writer is RootedAt): the next Save appends a delta
  /// after the restored tip instead of rewriting a base.
  void Adopt(const RestoredChain& chain);

  const std::string& prefix() const { return prefix_; }
  bool has_base() const { return has_base_; }
  std::size_t delta_count() const { return deltas_; }
  std::uint64_t tip_id() const { return tip_id_; }
  /// The chain lock (held iff the policy is exclusive and a Save has
  /// succeeded in acquiring it; see SnapshotChainLock for staleness).
  const SnapshotChainLock& lock() const { return lock_; }

  std::string BasePath() const;
  std::string DeltaPath(std::size_t k) const;  ///< k = 1, 2, ...

 private:
  Status SaveBase(const InternedWorkspace& ws,
                  const std::vector<std::vector<std::uint64_t>>& cursors,
                  std::string_view aux);
  Status SaveDelta(const InternedWorkspace& ws,
                   const std::vector<std::vector<std::uint64_t>>& cursors,
                   std::string_view aux);
  /// The external-root fold: chain + unpersisted journal as one delta.
  Status SaveCollapsed(const InternedWorkspace& ws,
                       const std::vector<std::vector<std::uint64_t>>& cursors,
                       std::string_view aux);

  std::string prefix_;
  SnapshotChainPolicy policy_;
  SnapshotChainLock lock_;
  bool has_base_ = false;
  bool external_root_ = false;
  std::uint64_t root_id_ = 0;
  std::size_t deltas_ = 0;
  std::uint64_t tip_id_ = 0;
  std::uint64_t base_bytes_ = 0;
  std::uint64_t delta_bytes_ = 0;
};

/// Loads the chain's root — `<prefix>.base`, or `root` when given (an
/// externally rooted chain; `root` must carry its record identity, see
/// SnapshotChainWriter::RootedAt, and `<prefix>.base` is never read) — and
/// replays every linked `<prefix>.delta.k` onto it in order. A delta whose
/// base link does not match the running tip — a stale leftover from before
/// a fold — ends the chain; a damaged record fails the whole load with
/// InvalidArgument. The restored workspace has journaling enabled and its
/// snapshot identity at the chain tip, ready for a SnapshotChainWriter
/// (`Adopt`) to continue.
Result<RestoredChain> LoadSnapshotChain(
    SchemePtr scheme, const std::string& prefix,
    std::optional<InternedWorkspace> root = std::nullopt);

/// The universe classification an ArmstrongSession persists alongside its
/// workspace (as the chain records' `aux` payload) so a warm start skips
/// the oracle re-classification replay entirely: every universe member in
/// classification order, with its oracle verdict.
struct SessionClassificationRecord {
  std::vector<Dependency> universe;
  std::vector<bool> expected;  ///< parallel to universe
};

/// Serializes `record` to a self-describing byte string (its own magic +
/// version; integrity is the enclosing snapshot record's checksum).
std::string SerializeSessionRecord(const SessionClassificationRecord& record);

/// Parses and validates a session record against `scheme` (every
/// dependency is Validate()d). InvalidArgument on damage.
Result<SessionClassificationRecord> DeserializeSessionRecord(
    const DatabaseScheme& scheme, std::string_view bytes);

/// FNV-1a 64 over `bytes` — the snapshot checksum, exposed for tests.
std::uint64_t Fnv1a64(std::string_view bytes);

/// Stable fingerprint of a scheme (Fnv1a64 over its canonical ToString).
/// The snapshot header's compatibility check, and the service layer's
/// sharding/routing key (service/service.h).
std::uint64_t SchemeFingerprint(const DatabaseScheme& scheme);

/// The current wire-format version. Version 2 added the record kind byte,
/// delta records, and the aux record; load rejects other versions (a
/// snapshot is a cache of capital, not a system of record).
inline constexpr std::uint32_t kWorkspaceSnapshotVersion = 2;

/// Record kind byte at the start of every payload.
inline constexpr std::uint8_t kSnapshotRecordFull = 0;
inline constexpr std::uint8_t kSnapshotRecordDelta = 1;

}  // namespace ccfp

#endif  // CCFP_CORE_SNAPSHOT_H_
