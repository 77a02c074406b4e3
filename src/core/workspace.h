#ifndef CCFP_CORE_WORKSPACE_H_
#define CCFP_CORE_WORKSPACE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "core/database.h"
#include "core/dependency.h"
#include "core/flat_table.h"
#include "core/intern.h"
#include "core/tuple.h"
#include "util/memory_budget.h"

namespace ccfp {

/// A tuple slot inside a workspace: relation + index into its tuple store.
struct WorkspaceTupleRef {
  RelId rel = 0;
  std::uint32_t idx = 0;
};

/// One cell of a workspace's intrusive occurrence lists: a tuple slot and
/// the next cell of the same value's list.
struct OccurrenceCell {
  static constexpr std::uint32_t kEnd = UINT32_MAX;
  WorkspaceTupleRef ref;
  std::uint32_t next = kEnd;
};

/// A value's occurrence list in registration order, read through the
/// workspace's one cell array (InternedWorkspace::occurrences). Valid
/// until the workspace next appends a tuple or reroutes a list.
class OccurrenceRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = WorkspaceTupleRef;
    using difference_type = std::ptrdiff_t;
    using pointer = const WorkspaceTupleRef*;
    using reference = const WorkspaceTupleRef&;

    iterator() = default;
    iterator(const OccurrenceCell* cells, std::uint32_t cell)
        : cells_(cells), cell_(cell) {}
    reference operator*() const { return cells_[cell_].ref; }
    pointer operator->() const { return &cells_[cell_].ref; }
    iterator& operator++() {
      cell_ = cells_[cell_].next;
      return *this;
    }
    iterator operator++(int) {
      iterator was = *this;
      ++*this;
      return was;
    }
    bool operator==(const iterator& o) const { return cell_ == o.cell_; }

   private:
    const OccurrenceCell* cells_ = nullptr;
    std::uint32_t cell_ = OccurrenceCell::kEnd;
  };

  OccurrenceRange(const OccurrenceCell* cells, std::uint32_t head)
      : cells_(cells), head_(head) {}
  iterator begin() const { return {cells_, head_}; }
  iterator end() const { return {cells_, OccurrenceCell::kEnd}; }

 private:
  const OccurrenceCell* cells_;
  std::uint32_t head_;
};

/// One entry of a relation's change feed (see InternedWorkspace). The
/// feed is the replication log of the tuple store: every mutation that can
/// change a model-checking verdict is exactly one event.
enum class WorkspaceEventKind : std::uint8_t {
  /// A new alive slot appeared at `idx` (Append / AppendTuple).
  kAppend = 0,
  /// Slot `idx`'s stored ids were remapped in place by CanonicalizeTuple
  /// (a merge made them non-canonical). Its projections may have changed.
  kRewrite = 1,
  /// Slot `idx` was killed: its canonical form collided with an alive
  /// twin, which carries all duties from now on.
  kKill = 2,
};

struct WorkspaceEvent {
  WorkspaceEventKind kind = WorkspaceEventKind::kAppend;
  std::uint32_t idx = 0;
};

/// Structured violation witness in id-space: `tuple_indices` are tuple
/// slots of `rel` in the workspace that found it. A workspace filled from
/// a Database by AppendRelation/AppendDatabase holds slot i == tuple i of
/// the source relation (relations are sets, so no append is rejected),
/// which makes the witness directly re-checkable against the original.
struct IdViolation {
  RelId rel = 0;
  std::vector<std::uint32_t> tuple_indices;
};

/// One entry of the opt-in mutation journal (EnableJournal): the logical
/// operation log delta snapshots serialize (core/snapshot.h wire format
/// v2). Replaying retained entries through the public mutation API
/// reproduces the workspace's *observable* state exactly — including
/// occurrence-list order (which drives deterministic chase worklists) and
/// per-relation feed windows. The change feed alone cannot: its events
/// carry no payloads, and a value merge between tuple-less ids publishes
/// no event at all.
struct WorkspaceJournalEntry {
  enum class Op : std::uint8_t {
    kAppend = 0,        ///< Append(rel, ids) inserted a new slot
    kMerge = 1,         ///< MergeValues(a, b) actually merged
    kReroute = 2,       ///< RerouteOccurrences(loser, winner)
    kCanonicalize = 3,  ///< CanonicalizeTuple(rel, idx) changed the slot
    kTrim = 4,          ///< CompactFeed(rel) dropped events below horizon
  };
  Op op = Op::kAppend;
  std::uint32_t rel = 0;      ///< kAppend / kCanonicalize / kTrim
  std::uint32_t idx = 0;      ///< kCanonicalize: the slot
  ValueId a = 0;              ///< kMerge: a; kReroute: loser
  ValueId b = 0;              ///< kMerge: b; kReroute: winner
  std::uint64_t horizon = 0;  ///< kTrim: the (clamped) new feed base
  IdTuple ids;                ///< kAppend: the raw stored ids
};

/// The persistent interned substrate shared by every engine that used to
/// re-intern per call: the FD+IND chase (chase/workspace_chase.h), the
/// EMVD chase (chase/emvd_chase.h), Armstrong build -> chase -> verify ->
/// repair rounds (armstrong/builder.cc), the counterexample oracle
/// (axiom/oracle.cc), dependency mining (mine/discovery.h), and the
/// incremental dependency watchers (verify/verifier.h). It is also the
/// only id-space model checker: a one-shot `Satisfies` on a Database
/// (core/satisfies.h) appends the involved relations into a throwaway
/// workspace and checks there.
///
/// The workspace is *incrementally maintainable*:
///
///   * tuples can be appended at any time (heap Values are interned on
///     first sight, id-tuples are copied in); each relation stores its rows
///     back to back in one arity-strided id arena, and duplicates are
///     rejected against a persistent per-relation dedup index, a slot
///     table keyed by the stored rows themselves (no second copy of any
///     tuple);
///   * value ids can be merged (the FD chase's null unification) through a
///     dense union-find with per-id occurrence lists, so only the tuples
///     that actually store a losing id are re-canonicalized;
///   * every (relation, column-sequence) projection partition is cached
///     and *maintained*: appends extend it over just the delta, and a
///     merge-driven rewrite or kill repairs only the touched groups
///     (surgical split/merge — partitions are never rebuilt from scratch
///     once compiled, and group ids are stable for the workspace's
///     lifetime);
///   * every mutation is published on a per-relation *change feed* with
///     stable sequence numbers, so mid-stream verifiers
///     (verify/verifier.h) and resumable engines can consume the delta
///     from a cursor instead of re-scanning the store.
///
/// ## Change feed
///
/// Each relation owns an append-only event log. `EventCount(rel)` is the
/// current sequence number; `events(rel)[s]` is the event with sequence
/// `s` (never mutated once published). A consumer that remembers a cursor
/// `c` can reconstruct every verdict-relevant mutation since by replaying
/// `events(rel)[c .. EventCount(rel))`:
///   * kAppend  — slot born alive at idx;
///   * kRewrite — slot idx's ids remapped (consumers that cached its old
///                projections must re-read them);
///   * kKill    — slot idx died (an identical alive twin remains).
/// A slot appears at most once per kind run: append, then any number of
/// rewrites, then at most one kill. Events are published *after* the
/// mutation (and its partition repair) is applied, so a consumer reading
/// the log sees store state at least as new as the event.
///
/// ### Compaction
///
/// Sequence numbers are *stable forever*, but the events themselves are
/// retained only back to a per-relation *compaction horizon*
/// `FeedBase(rel)`: long-lived consumers register a cursor
/// (`RegisterFeedCursor`) and advance it as they consume
/// (`AdvanceFeedCursor`), and `CompactFeed(s)` trims the prefix every
/// registered cursor has passed. `event(rel, seq)` serves any retained
/// sequence; asking for a trimmed one is a programming error
/// (CCFP_CHECK). CompactFeed never outruns a registered cursor, so a
/// consumer that registers before reading never finds its cursor behind
/// the horizon; one that starts at sequence 0 over an already compacted
/// feed (a chase over a sealed base's fork) must take the horizon as its
/// starting point. With no cursors registered, CompactFeed trims
/// everything: a workspace used purely for model checking carries no log
/// at all.
///
/// ## Partition maintenance contract
///
/// A cached partition covers a prefix of the relation's slots:
///   * same size            -> served as-is (zero work);
///   * new tuples appended  -> extended over the appended suffix only;
///   * a covered slot rewritten/killed -> repaired in place at mutation
///     time: the slot leaves its old group (which may become an empty
///     *tombstone* — group ids are never reused or renumbered) and, for a
///     rewrite, joins the group of its new key (created on demand).
/// `group_size[g]` counts the alive covered members of `g`;
/// `alive_groups` counts the groups with `group_size > 0`. Keys are never
/// erased and a group is created exactly when its key is first inserted,
/// so group id == key entry: `key(g)` reads group g's key straight from
/// the flat key arena, and `GroupOfKey` probes it without building a
/// tuple. Tombstoned groups keep their key: a stale key contains at least
/// one merged-away (non-root) id in the changed column, so it can never
/// collide with a canonical probe key; probes must still treat a hit on a
/// `group_size == 0` group as a miss (the model checks below do). Repairs
/// keep group ids stable, NOT sorted: nothing may assume group ids follow
/// first-occurrence slot order.
///
/// Appending never disturbs existing groups, so append-only workloads
/// (the EMVD chase, mining, the oracle) pay for each partition row exactly
/// once no matter how many rounds or probes run over it; merge-heavy
/// chases pay per (touched slot, cached column-set), never per relation.
///
/// ## Staleness
///
/// `MergeValues` leaves the tuples that contain the losing id *stale*
/// (their stored ids are no longer canonical) until `CanonicalizeTuple` is
/// called on each — the chase engine drives that through its dirty
/// worklist so a tuple touched by many merges is re-canonicalized once.
/// Model checking (`Satisfies` / `FindViolation`), `partition()`, and
/// feed consumption (verify/verifier.h CatchUp) are only valid when no
/// tuple is stale; every chase entry point restores that invariant before
/// returning.
class InternedWorkspace {
 public:
  /// Group id assigned to dead (merged-away) tuple slots in partitions.
  static constexpr std::uint32_t kNoGroup = UINT32_MAX;

  /// The projection partition of one relation by a column sequence X:
  /// every alive tuple slot gets a group id such that two slots share a
  /// group iff they agree on X. Dead slots carry kNoGroup and are not
  /// counted in any group.
  struct Partition {
    std::vector<std::uint32_t> group_of;
    /// == keys.size(): every group owns exactly one key entry.
    std::uint32_t group_count = 0;
    /// Number of groups with at least one alive covered member. Equal to
    /// group_count until a repair tombstones a group.
    std::uint32_t alive_groups = 0;
    /// group_size[g]: alive covered members of group g (0 = tombstone).
    std::vector<std::uint32_t> group_size;
    /// The group keys, one entry per group in creation order: group g's
    /// key (the projection of its members onto the column sequence) is
    /// `key(g)`, tombstones included.
    IdKeySet keys;

    /// Group g's key: `keys.width()` ids.
    const ValueId* key(std::uint32_t g) const { return keys.key(g); }
    /// The group whose key is `key` (`keys.width()` ids), tombstoned
    /// groups included, or kNoGroup.
    std::uint32_t GroupOfKey(const ValueId* key) const {
      return keys.Find(key);
    }
  };

  /// Substrate-level maintenance counters, exposed so tests and benches
  /// can prove reuse (e.g. "repair round 2 extended partitions instead of
  /// rebuilding them").
  struct Stats {
    std::uint64_t partitions_built = 0;     ///< built from scratch
    std::uint64_t partitions_extended = 0;  ///< refreshed over a delta only
    std::uint64_t partitions_reused = 0;    ///< served unchanged
    /// Discarded whole. Always 0 since surgical repair replaced epoch
    /// invalidation (PR 5); kept so stat-schema consumers can assert it.
    std::uint64_t partitions_invalidated = 0;
    /// Per-(slot, cached partition) surgical group repairs (split/merge/
    /// tombstone) applied by rewrites and kills.
    std::uint64_t partition_slots_repaired = 0;
    std::uint64_t tuples_appended = 0;
    std::uint64_t tuples_killed = 0;  ///< merged onto an alive twin
    std::uint64_t values_interned = 0;
    std::uint64_t value_merges = 0;
    std::uint64_t feed_compactions = 0;       ///< trims that dropped events
    std::uint64_t feed_events_compacted = 0;  ///< events dropped in total
  };

  /// Handle to a registered change-feed cursor (see RegisterFeedCursor).
  using FeedCursorId = std::uint32_t;

  explicit InternedWorkspace(SchemePtr scheme);

  const DatabaseScheme& scheme() const { return *scheme_; }
  const SchemePtr& scheme_ptr() const { return scheme_; }
  const ValueInterner& interner() const { return interner_; }
  const Stats& stats() const { return stats_; }

  /// --- value space --------------------------------------------------------

  /// Interns `v` (noting null labels so fresh nulls stay above them).
  ValueId Intern(const Value& v);
  /// Interns a fresh labeled null, numbered above every label seen so far.
  ValueId InternFreshNull() {
    return Intern(Value::Null(ReserveNullLabels(1)));
  }
  /// Reserves `n` consecutive fresh null labels and returns the first
  /// (see ValueInterner::ReserveNullLabels); nothing is interned.
  std::uint64_t ReserveNullLabels(std::uint64_t n) {
    return interner_.ReserveNullLabels(n);
  }
  /// Canonical (union-find root) id of `id`.
  ValueId Canon(ValueId id) const { return uf_.Find(id); }
  /// Semantic representative of `id`'s class: its constant if one was
  /// merged in, else its lowest-labeled null.
  ValueId Rep(ValueId id) const { return uf_.Rep(id); }

  /// --- tuples -------------------------------------------------------------

  /// Appends `t` (ids must come from this workspace's interner; its size
  /// must be the relation's arity). Returns true if the tuple was new;
  /// duplicates (on raw ids) are rejected. Registers per-id occurrences so
  /// later merges can find the tuple.
  bool Append(RelId rel, const IdTuple& t);
  /// Interns every Value of `t` and appends.
  bool AppendTuple(RelId rel, const Tuple& t);
  /// Appends every tuple of `db` (relations in scheme order, tuples in
  /// insertion order — the deterministic id assignment the chase relies
  /// on). The scheme must be the workspace's.
  void AppendDatabase(const Database& db);
  /// Appends only relation `rel` of `db` (the single-relation fast path:
  /// probing one relation's FDs does not pay for interning the others).
  void AppendRelation(const Database& db, RelId rel);

  /// Number of tuple *slots* in `rel`, dead ones included.
  std::size_t size(RelId rel) const { return rels_[rel].alive.size(); }
  bool alive(RelId rel, std::uint32_t idx) const {
    return rels_[rel].alive[idx] != 0;
  }
  /// Slot `idx`'s stored ids, viewed in the relation's row arena: valid
  /// until the next Append to `rel` (CanonicalizeTuple rewrites them in
  /// place).
  IdRow tuple(RelId rel, std::uint32_t idx) const {
    return rels_[rel].row(idx);
  }
  std::size_t AliveTuples(RelId rel) const { return rels_[rel].alive_count; }
  /// The alive slot of `rel` storing exactly `ids`, found through the
  /// dedup index; nullopt when no alive slot does.
  std::optional<std::uint32_t> FindTuple(RelId rel, IdRow ids) const;
  /// O(1): maintained by Append / CanonicalizeTuple (the chase engines
  /// consult it per generated tuple for their budget checks).
  std::size_t TotalAliveTuples() const { return total_alive_; }

  /// --- change feed --------------------------------------------------------

  /// Sequence number one past the last event published for `rel` (== the
  /// number of events published so far, trimmed ones included). Monotone;
  /// a consumer's cursor into the feed is a value previously returned by
  /// this.
  std::uint64_t EventCount(RelId rel) const {
    return rels_[rel].feed_base + rels_[rel].feed.size();
  }
  /// The compaction horizon of `rel`: the lowest sequence number still
  /// retained. 0 until a compaction trims the feed.
  std::uint64_t FeedBase(RelId rel) const { return rels_[rel].feed_base; }
  /// The event with sequence `seq`; requires FeedBase(rel) <= seq <
  /// EventCount(rel). Never mutated once published.
  const WorkspaceEvent& event(RelId rel, std::uint64_t seq) const;
  /// The *retained* event window of `rel`: entry `i` has sequence
  /// FeedBase(rel) + i. Entries are never mutated once published; the
  /// reference is invalidated by the next mutation or compaction of
  /// `rel`, so consume before mutating.
  const std::vector<WorkspaceEvent>& events(RelId rel) const {
    return rels_[rel].feed;
  }

  /// Registers a long-lived feed consumer (a chase admit cursor, a
  /// verifier, a miner). The cursor starts at sequence 0 on every
  /// relation — holding the entire retained feed — and pins compaction:
  /// CompactFeed never trims past the minimum registered position.
  /// Registry maintenance is const (like union-find path halving): it is
  /// consumer bookkeeping, not observable tuple/feed state, so read-only
  /// consumers (the verifier) can register too.
  FeedCursorId RegisterFeedCursor() const;
  /// Records that cursor `id` has consumed `rel`'s events below `seq`.
  /// Monotone per (cursor, rel); `seq` may not exceed EventCount(rel).
  void AdvanceFeedCursor(FeedCursorId id, RelId rel,
                         std::uint64_t seq) const;
  /// Retained position of cursor `id` on `rel`.
  std::uint64_t FeedCursorPosition(FeedCursorId id, RelId rel) const;
  /// Unregisters `id`; it no longer pins compaction. Safe on an already
  /// released id (so owners can release on destruction unconditionally).
  void ReleaseFeedCursor(FeedCursorId id) const;
  /// Number of currently registered cursors.
  std::size_t RegisteredFeedCursors() const;

  /// Trims `rel`'s feed prefix below the minimum registered cursor (or
  /// the whole feed when no cursor is registered). Returns the number of
  /// events dropped. Cheap when there is nothing to trim.
  std::uint64_t CompactFeed(RelId rel);
  /// CompactFeed over every relation; returns the total dropped.
  std::uint64_t CompactFeeds();

  /// --- mutation journal (incremental persistence) -------------------------
  ///
  /// Off by default (hot paths and non-persisting sessions pay nothing —
  /// every mutator's journal hook is one branch on a bool). A session
  /// that persists through delta snapshots (core/snapshot.h) enables the
  /// journal once; from then on every state-changing mutation appends one
  /// entry, and a delta snapshot serializes exactly the retained suffix
  /// plus the interner growth since the last persisted record. After a
  /// record is durably written, `MarkJournalPersisted` drops the suffix —
  /// so a quiescent session's journal, like its compacted feed, stays
  /// O(in-flight delta).

  /// Turns journaling on (idempotent). Entries accrue from this point.
  /// Const like the cursor registry: persistence bookkeeping, enabled
  /// from const save/restore paths.
  void EnableJournal() const { journal_enabled_ = true; }
  bool journal_enabled() const { return journal_enabled_; }
  /// The retained (not yet persisted) entries, oldest first.
  const std::vector<WorkspaceJournalEntry>& journal() const {
    return journal_;
  }
  /// Logical bytes of the retained journal (MemoryUsage().journal).
  std::uint64_t JournalBytes() const { return journal_bytes_; }
  /// Interner size at the last persisted record: values [this, size())
  /// are the growth a delta snapshot must carry.
  std::uint64_t JournalValuesBase() const { return journal_values_base_; }
  /// Identity (header checksum) of the last chain record this state was
  /// persisted as / restored from; a delta snapshot links to it.
  std::uint64_t SnapshotBaseId() const { return snapshot_base_id_; }
  bool HasSnapshotBase() const { return has_snapshot_base_; }
  /// Called by the snapshot layer after the retained journal was durably
  /// persisted as (or restored from) chain record `id`: drops the
  /// retained entries and re-bases the chain identity. Const like the
  /// cursor registry — persistence bookkeeping, not observable
  /// tuple/feed state (saves take a const workspace).
  void MarkJournalPersisted(std::uint64_t id) const {
    journal_.clear();
    journal_bytes_ = 0;
    journal_values_base_ = interner_.size();
    snapshot_base_id_ = id;
    has_snapshot_base_ = true;
  }

  /// --- merging (the chase's equality-generating moves) --------------------

  struct MergeResult {
    ValueId winner = 0;   ///< structural winner (root of the merged class)
    ValueId loser = 0;    ///< structural loser; its tuples are now stale
    bool merged = false;  ///< false when already equal or on clash
    bool clash = false;   ///< two distinct constants met
  };

  /// Unions the classes of `a` and `b` under the chase's merge semantics
  /// (constant beats null, lower label wins between nulls, two constants
  /// clash). Does NOT rewrite any tuple: every slot listed in
  /// `occurrences(loser)` is now stale and must be passed to
  /// `CanonicalizeTuple` (the chase engine enqueues them) before the next
  /// partition or Satisfies call. Call `RerouteOccurrences` after reading
  /// the list.
  MergeResult MergeValues(ValueId a, ValueId b);

  /// Tuple slots whose stored (raw) ids include `id`, in registration
  /// order (rerouted lists follow the winner's own entries).
  OccurrenceRange occurrences(ValueId id) const {
    return {occ_cells_.data(), occ_lists_[id].head};
  }
  /// Splices `loser`'s occurrence list onto the tail of `winner`'s in O(1)
  /// (the merged class keeps one list; the loser's empties).
  void RerouteOccurrences(ValueId loser, ValueId winner);

  enum class CanonOutcome : std::uint8_t {
    kUnchanged = 0,  ///< already canonical (or dead)
    kRewritten = 1,  ///< ids remapped in place; partitions repaired
    kKilled = 2,     ///< canonical form collided with an alive twin
  };

  /// Re-canonicalizes the slot's stored ids through the union-find,
  /// re-deduplicates, surgically repairs every cached partition over the
  /// relation, and publishes the rewrite/kill on the change feed.
  CanonOutcome CanonicalizeTuple(RelId rel, std::uint32_t idx);

  /// --- partitions ---------------------------------------------------------

  /// The partition of `rel` by the column sequence `cols`, maintained under
  /// the contract above. The returned reference stays valid across later
  /// partition() calls (node-based cache) and its group ids are stable for
  /// the workspace's lifetime; its contents are refreshed by later calls.
  /// Requires no stale tuples.
  const Partition& partition(RelId rel, const std::vector<AttrId>& cols) const;

  /// Extends every cached partition of `rel` over the appended suffix in
  /// one map traversal — the bulk-refresh used by feed consumers
  /// (verify/verifier.h) before replaying events, cheaper than a
  /// per-column-set `partition()` lookup when many sets are cached.
  void ExtendAllPartitions(RelId rel) const;

  /// --- model checking -----------------------------------------------------
  /// Same semantics as the legacy Value-hashing checks in
  /// core/satisfies.cc (differentially tested); requires no stale tuples.
  /// Every scan walks slots front-to-back, so the first violation found
  /// matches a legacy front-to-back scan. For watcher-based delta-driven
  /// verdicts over the same workspace see verify/verifier.h.

  bool Satisfies(const Fd& fd) const;
  bool Satisfies(const Ind& ind) const;
  bool Satisfies(const Rd& rd) const;
  bool Satisfies(const Emvd& emvd) const;
  bool Satisfies(const Mvd& mvd) const;
  bool Satisfies(const Dependency& dep) const;
  bool SatisfiesAll(const std::vector<Dependency>& deps) const;

  /// Violation witness with offending tuple slots (see IdViolation; slots
  /// may skip dead indices), or nullopt if `dep` holds.
  std::optional<IdViolation> FindViolation(const Dependency& dep) const;

  /// --- memory -------------------------------------------------------------

  /// Logical bytes of live substrate state, by component (see
  /// util/memory_budget.h for what "logical" means). O(#relations +
  /// #cached partitions): tuples, occurrences and partition keys live in
  /// flat arrays whose sizes are the sums, so engines can afford to call
  /// this at periodic budget checkpoints.
  MemoryBreakdown MemoryUsage() const;
  /// The part of MemoryUsage().interner held by the frozen value table
  /// that forks share (ids below the interner's base size; 0 before
  /// SealSharedBase). A fork copies everything else, union-find cells
  /// included, so what one fork costs on its own is Total() minus this.
  std::uint64_t SharedInternerBytes() const;

  /// --- shared core (fork semantics) ---------------------------------------
  ///
  /// A long-lived *base* workspace can be sealed once and then forked per
  /// session: `SealSharedBase` freezes the interner's value tables into an
  /// immutable refcounted base (core/intern.h) and compacts the feeds, and
  /// `Fork` produces an independent overlay workspace that shares that
  /// base — so the Nth session over a warmed scheme pays zero re-interning
  /// of the base values and inherits every compiled projection partition
  /// instead of rebuilding it (the forked stats_ carry over, letting
  /// callers assert a zero `values_interned` / `partitions_built` delta).

  /// Seals this workspace as a shareable base: freezes the interner and
  /// compacts all feeds. Idempotent. The workspace stays fully usable
  /// (and mutable) afterwards, but a typical base is left untouched and
  /// only forked from.
  void SealSharedBase();

  /// An independent copy sharing the frozen interner base after
  /// SealSharedBase. Only the interner's value table is shared; the rest
  /// is copied, but every container is flat — one row arena per relation,
  /// one occurrence cell array, and per cached partition its group arrays
  /// plus a key arena and its index — so a fork is a few vector copies
  /// and its teardown a few frees: O(relations + cached partitions)
  /// allocations whatever the row count (tests/workspace_fork_smoke_test).
  /// Session-local state that must not leak across sessions is reset:
  /// registered feed cursors, the mutation journal, and the snapshot-chain
  /// identity. Stats counters are inherited so reuse deltas read zero.
  InternedWorkspace Fork() const;

  /// --- export -------------------------------------------------------------

  /// Converts the alive tuples to a heap-Value Database, slot order
  /// preserved, each id printed as its class's semantic representative.
  Database Materialize() const;

 private:
  friend class WorkspaceSnapshotAccess;

  /// Trims `rel`'s feed below `horizon` (clamped to [FeedBase,
  /// EventCount]) and journals it, *ignoring* registered cursors: callers
  /// are CompactFeed, which passes the minimum cursor, and the replay of a
  /// journaled trim onto a cursor-free root (core/snapshot.cc). Returns
  /// the events dropped.
  std::uint64_t TrimFeedTo(RelId rel, std::uint64_t horizon);

  struct RelStore {
    std::size_t arity = 0;
    /// Row arena: slot i stores ids [i * arity, (i + 1) * arity).
    std::vector<ValueId> cells;
    /// Per slot; its size is the slot count.
    std::vector<std::uint8_t> alive;
    /// Duplicate detection: (hash of the stored row, slot) for every alive
    /// slot, compared through the arena itself.
    FlatSlotTable dedup;
    /// The relation's retained change feed: entry i has sequence
    /// feed_base + i (the prefix below feed_base was compacted away).
    std::vector<WorkspaceEvent> feed;
    std::uint64_t feed_base = 0;
    std::size_t alive_count = 0;

    IdRow row(std::uint32_t idx) const {
      return {cells.data() + static_cast<std::size_t>(idx) * arity, arity};
    }
    ValueId* mutable_row(std::uint32_t idx) {
      return cells.data() + static_cast<std::size_t>(idx) * arity;
    }
    /// The alive slot storing `ids`, or FlatSlotTable::kNone.
    std::uint32_t FindRow(IdRow ids) const {
      return dedup.Find(HashIds(ids.data(), ids.size()), [&](std::uint32_t s) {
        return std::ranges::equal(row(s), ids);
      });
    }
    /// Indexes slot `idx` under `ids` (its stored row, or the row about to
    /// be stored there); false, indexing nothing, when an alive slot
    /// already stores `ids`.
    bool IndexRow(std::uint32_t idx, IdRow ids) {
      return dedup
          .Insert(HashIds(ids.data(), ids.size()), idx,
                  [&](std::uint32_t s) {
                    return std::ranges::equal(row(s), ids);
                  })
          .second;
    }
    /// Drops slot `idx` from the index; call before its row changes.
    void UnindexRow(std::uint32_t idx) {
      IdRow ids = row(idx);
      dedup.Erase(HashIds(ids.data(), ids.size()), idx);
    }
  };

  struct FeedCursor {
    bool active = false;
    std::vector<std::uint64_t> pos;  ///< per relation
  };

  struct CachedPartition {
    std::uint32_t covered = 0;  ///< tuple slots incorporated so far
    Partition p;
  };

  void RegisterOccurrences(RelId rel, std::uint32_t idx, IdRow t);
  /// Appends one cell for `ref` to the tail of `id`'s occurrence list.
  void PushOccurrence(ValueId id, WorkspaceTupleRef ref);
  /// Appends `e` to the mutation journal when journaling is on.
  void JournalRecord(WorkspaceJournalEntry e) const;
  /// Incorporates slots [from, size) into `cp` (skipping dead ones).
  void ExtendPartition(RelId rel, const std::vector<AttrId>& cols,
                       CachedPartition& cp) const;
  /// Surgical repair of every cached partition covering slot (rel, idx)
  /// after its stored ids changed: leave the old group (tombstoning it if
  /// emptied) and join/create the group of the new projection key.
  void RepairPartitionsForRewrite(RelId rel, std::uint32_t idx);
  /// Same, after the slot was killed: leave the old group only.
  void RepairPartitionsForKill(RelId rel, std::uint32_t idx);

  SchemePtr scheme_;
  ValueInterner interner_;
  mutable DenseUnionFind uf_;  ///< Find path-halves; logically const
  std::vector<RelStore> rels_;
  std::size_t total_alive_ = 0;
  /// AppendTuple's interned row, reused so an append allocates only when
  /// a container grows.
  IdTuple append_ids_;
  /// Intrusive occurrence lists: every list's cells live in one array,
  /// chained through OccurrenceCell::next from the value's head to its
  /// tail.
  struct OccurrenceList {
    std::uint32_t head = OccurrenceCell::kEnd;
    std::uint32_t tail = OccurrenceCell::kEnd;
  };
  std::vector<OccurrenceCell> occ_cells_;
  std::vector<OccurrenceList> occ_lists_;  // by ValueId
  mutable std::vector<FeedCursor> cursors_;  ///< by id; logically const
  /// Per relation: column sequence -> cached partition. std::map keeps
  /// Partition references stable across inserts.
  mutable std::vector<std::map<std::vector<AttrId>, CachedPartition>>
      partitions_;
  mutable Stats stats_;
  /// Mutation journal (see EnableJournal). Mutable for the same reason as
  /// cursors_: persistence bookkeeping updated from const save paths
  /// (MarkJournalPersisted) and suppressed during const-disabled replay.
  mutable bool journal_enabled_ = false;
  mutable std::vector<WorkspaceJournalEntry> journal_;
  mutable std::uint64_t journal_bytes_ = 0;
  mutable std::uint64_t journal_values_base_ = 0;
  mutable std::uint64_t snapshot_base_id_ = 0;
  mutable bool has_snapshot_base_ = false;
};

}  // namespace ccfp

#endif  // CCFP_CORE_WORKSPACE_H_
