#include "core/workspace.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace ccfp {

// Partition::GroupOfKey reports a missing key as IdKeySet::kNone.
static_assert(InternedWorkspace::kNoGroup == IdKeySet::kNone);

InternedWorkspace::InternedWorkspace(SchemePtr scheme)
    : scheme_(std::move(scheme)),
      rels_(scheme_->size()),
      partitions_(scheme_->size()) {
  for (RelId rel = 0; rel < scheme_->size(); ++rel) {
    rels_[rel].arity = scheme_->relation(rel).arity();
  }
}

ValueId InternedWorkspace::Intern(const Value& v) {
  std::size_t before = interner_.size();
  ValueId id = interner_.Intern(v);
  if (interner_.size() != before) {
    ++stats_.values_interned;
    // Every handed-out id is immediately Canon/Merge/occurrences-safe,
    // whether or not it ever lands in a tuple.
    uf_.EnsureSize(interner_.size());
    occ_lists_.resize(interner_.size());
  }
  return id;
}

void InternedWorkspace::RegisterOccurrences(RelId rel, std::uint32_t idx,
                                            IdRow t) {
  if (occ_lists_.size() < interner_.size()) {
    occ_lists_.resize(interner_.size());
  }
  uf_.EnsureSize(interner_.size());
  for (ValueId id : t) PushOccurrence(id, WorkspaceTupleRef{rel, idx});
}

void InternedWorkspace::PushOccurrence(ValueId id, WorkspaceTupleRef ref) {
  std::uint32_t cell = static_cast<std::uint32_t>(occ_cells_.size());
  occ_cells_.push_back(OccurrenceCell{ref, OccurrenceCell::kEnd});
  OccurrenceList& list = occ_lists_[id];
  if (list.head == OccurrenceCell::kEnd) {
    list.head = cell;
  } else {
    occ_cells_[list.tail].next = cell;
  }
  list.tail = cell;
}

void InternedWorkspace::JournalRecord(WorkspaceJournalEntry e) const {
  if (!journal_enabled_) return;
  journal_bytes_ += sizeof(WorkspaceJournalEntry) +
                    static_cast<std::uint64_t>(e.ids.size()) *
                        sizeof(ValueId);
  journal_.push_back(std::move(e));
}

bool InternedWorkspace::Append(RelId rel, const IdTuple& t) {
  RelStore& rs = rels_[rel];
  CCFP_CHECK(t.size() == rs.arity);
  std::uint32_t idx = static_cast<std::uint32_t>(rs.alive.size());
  if (!rs.IndexRow(idx, t)) return false;
  if (journal_enabled_) {
    WorkspaceJournalEntry e;
    e.op = WorkspaceJournalEntry::Op::kAppend;
    e.rel = rel;
    e.ids = t;
    JournalRecord(std::move(e));
  }
  RegisterOccurrences(rel, idx, t);
  rs.cells.insert(rs.cells.end(), t.begin(), t.end());
  rs.alive.push_back(1);
  ++rs.alive_count;
  ++total_alive_;
  ++stats_.tuples_appended;
  rs.feed.push_back(WorkspaceEvent{WorkspaceEventKind::kAppend, idx});
  return true;
}

bool InternedWorkspace::AppendTuple(RelId rel, const Tuple& t) {
  for (const Value& v : t) append_ids_.push_back(Intern(v));
  bool added = Append(rel, append_ids_);
  append_ids_.clear();  // empty, so copying the workspace copies nothing
  return added;
}

void InternedWorkspace::AppendDatabase(const Database& db) {
  CCFP_CHECK(db.scheme().size() == scheme_->size());
  for (RelId rel = 0; rel < scheme_->size(); ++rel) {
    AppendRelation(db, rel);
  }
}

void InternedWorkspace::AppendRelation(const Database& db, RelId rel) {
  const Relation& r = db.relation(rel);
  RelStore& rs = rels_[rel];
  // Room for the whole relation in one allocation, but at least double
  // the capacity: a stream of small appends then reallocates the arena
  // O(log rows) times, not once per call.
  std::size_t rows = rs.alive.size() + r.size();
  if (rows * rs.arity > rs.cells.capacity()) {
    rs.cells.reserve(std::max(rows * rs.arity, 2 * rs.cells.capacity()));
  }
  if (rows > rs.alive.capacity()) {
    rs.alive.reserve(std::max(rows, 2 * rs.alive.capacity()));
  }
  for (const Tuple& t : r.tuples()) AppendTuple(rel, t);
}

InternedWorkspace::MergeResult InternedWorkspace::MergeValues(ValueId a,
                                                              ValueId b) {
  DenseUnionFind::UnionResult u = uf_.Union(a, b, interner_);
  MergeResult result;
  result.winner = u.winner;
  result.loser = u.loser;
  result.merged = u.merged;
  result.clash = u.clash;
  if (u.merged) {
    ++stats_.value_merges;
    if (journal_enabled_) {
      WorkspaceJournalEntry e;
      e.op = WorkspaceJournalEntry::Op::kMerge;
      e.a = a;
      e.b = b;
      JournalRecord(std::move(e));
    }
  }
  return result;
}

void InternedWorkspace::RerouteOccurrences(ValueId loser, ValueId winner) {
  CCFP_CHECK(loser != winner);
  if (journal_enabled_) {
    WorkspaceJournalEntry e;
    e.op = WorkspaceJournalEntry::Op::kReroute;
    e.a = loser;
    e.b = winner;
    JournalRecord(std::move(e));
  }
  OccurrenceList& from = occ_lists_[loser];
  OccurrenceList& to = occ_lists_[winner];
  if (from.head == OccurrenceCell::kEnd) return;
  if (to.head == OccurrenceCell::kEnd) {
    to.head = from.head;
  } else {
    occ_cells_[to.tail].next = from.head;
  }
  to.tail = from.tail;
  from = OccurrenceList{};
}

void InternedWorkspace::RepairPartitionsForRewrite(RelId rel,
                                                   std::uint32_t idx) {
  IdRow t = rels_[rel].row(idx);
  IdTuple key;
  for (auto& [cols, cp] : partitions_[rel]) {
    if (cp.covered <= idx) continue;  // the extension will pick it up
    Partition& p = cp.p;
    std::uint32_t g = p.group_of[idx];
    key.clear();
    for (AttrId c : cols) key.push_back(t[c]);
    auto [g2, inserted] = p.keys.Insert(key.data());
    if (!inserted && g2 == g) continue;  // projection unchanged
    if (--p.group_size[g] == 0) --p.alive_groups;  // tombstone
    if (inserted) {
      p.group_size.push_back(1);
      ++p.group_count;
      ++p.alive_groups;
    } else if (++p.group_size[g2] == 1) {
      ++p.alive_groups;  // rejoined a tombstoned group
    }
    p.group_of[idx] = g2;
    ++stats_.partition_slots_repaired;
  }
}

void InternedWorkspace::RepairPartitionsForKill(RelId rel,
                                                std::uint32_t idx) {
  for (auto& [cols, cp] : partitions_[rel]) {
    if (cp.covered <= idx) continue;
    Partition& p = cp.p;
    std::uint32_t g = p.group_of[idx];
    if (g == kNoGroup) continue;
    if (--p.group_size[g] == 0) --p.alive_groups;
    p.group_of[idx] = kNoGroup;
    ++stats_.partition_slots_repaired;
  }
}

InternedWorkspace::CanonOutcome InternedWorkspace::CanonicalizeTuple(
    RelId rel, std::uint32_t idx) {
  RelStore& rs = rels_[rel];
  if (!rs.alive[idx]) return CanonOutcome::kUnchanged;
  ValueId* stored = rs.mutable_row(idx);
  bool changed = false;
  for (std::size_t k = 0; k < rs.arity; ++k) {
    if (uf_.Find(stored[k]) != stored[k]) {
      changed = true;
      break;
    }
  }
  if (!changed) return CanonOutcome::kUnchanged;
  if (journal_enabled_) {
    WorkspaceJournalEntry e;
    e.op = WorkspaceJournalEntry::Op::kCanonicalize;
    e.rel = rel;
    e.idx = idx;
    JournalRecord(std::move(e));
  }
  rs.UnindexRow(idx);
  for (std::size_t k = 0; k < rs.arity; ++k) stored[k] = uf_.Find(stored[k]);
  if (!rs.IndexRow(idx, rs.row(idx))) {
    // Collapsed onto an alive twin; the twin carries all duties.
    rs.alive[idx] = 0;
    --rs.alive_count;
    --total_alive_;
    ++stats_.tuples_killed;
    RepairPartitionsForKill(rel, idx);
    rs.feed.push_back(WorkspaceEvent{WorkspaceEventKind::kKill, idx});
    return CanonOutcome::kKilled;
  }
  RepairPartitionsForRewrite(rel, idx);
  rs.feed.push_back(WorkspaceEvent{WorkspaceEventKind::kRewrite, idx});
  return CanonOutcome::kRewritten;
}

std::optional<std::uint32_t> InternedWorkspace::FindTuple(RelId rel,
                                                         IdRow ids) const {
  std::uint32_t slot = rels_[rel].FindRow(ids);
  if (slot == FlatSlotTable::kNone) return std::nullopt;
  return slot;
}

void InternedWorkspace::ExtendPartition(RelId rel,
                                        const std::vector<AttrId>& cols,
                                        CachedPartition& cp) const {
  const RelStore& rs = rels_[rel];
  Partition& p = cp.p;
  std::uint32_t end = static_cast<std::uint32_t>(rs.alive.size());
  p.group_of.reserve(end);
  IdTuple key;
  key.reserve(cols.size());
  for (std::uint32_t i = cp.covered; i < end; ++i) {
    if (!rs.alive[i]) {
      p.group_of.push_back(kNoGroup);
      continue;
    }
    IdRow t = rs.row(i);
    key.clear();
    for (AttrId c : cols) key.push_back(t[c]);
    auto [g, inserted] = p.keys.Insert(key.data());
    if (inserted) {
      p.group_size.push_back(1);
      ++p.group_count;
      ++p.alive_groups;
    } else if (++p.group_size[g] == 1) {
      ++p.alive_groups;  // a canonical twin re-populating a tombstone
    }
    p.group_of.push_back(g);
  }
  cp.covered = end;
}

void InternedWorkspace::ExtendAllPartitions(RelId rel) const {
  const RelStore& rs = rels_[rel];
  for (auto& [cols, cp] : partitions_[rel]) {
    if (cp.covered == rs.alive.size()) {
      continue;  // already current; repairs keep covered slots right
    }
    ++stats_.partitions_extended;
    ExtendPartition(rel, cols, cp);
  }
}

const InternedWorkspace::Partition& InternedWorkspace::partition(
    RelId rel, const std::vector<AttrId>& cols) const {
  const RelStore& rs = rels_[rel];
  auto [it, inserted] = partitions_[rel].try_emplace(cols);
  CachedPartition& cp = it->second;
  if (!inserted) {
    if (cp.covered == rs.alive.size()) {
      ++stats_.partitions_reused;
    } else {
      ++stats_.partitions_extended;
      ExtendPartition(rel, cols, cp);
    }
    return cp.p;
  }
  ++stats_.partitions_built;
  cp.p.keys = IdKeySet(cols.size());
  ExtendPartition(rel, cols, cp);
  return cp.p;
}

const WorkspaceEvent& InternedWorkspace::event(RelId rel,
                                               std::uint64_t seq) const {
  const RelStore& rs = rels_[rel];
  CCFP_CHECK(seq >= rs.feed_base && "event below the compaction horizon");
  CCFP_CHECK(seq - rs.feed_base < rs.feed.size());
  return rs.feed[static_cast<std::size_t>(seq - rs.feed_base)];
}

InternedWorkspace::FeedCursorId InternedWorkspace::RegisterFeedCursor()
    const {
  for (FeedCursorId id = 0; id < cursors_.size(); ++id) {
    if (!cursors_[id].active) {
      cursors_[id].active = true;
      cursors_[id].pos.assign(scheme_->size(), 0);
      return id;
    }
  }
  FeedCursor c;
  c.active = true;
  c.pos.assign(scheme_->size(), 0);
  cursors_.push_back(std::move(c));
  return static_cast<FeedCursorId>(cursors_.size() - 1);
}

void InternedWorkspace::AdvanceFeedCursor(FeedCursorId id, RelId rel,
                                          std::uint64_t seq) const {
  CCFP_CHECK(id < cursors_.size() && cursors_[id].active);
  CCFP_CHECK(seq <= EventCount(rel));
  std::uint64_t& pos = cursors_[id].pos[rel];
  if (seq > pos) pos = seq;  // monotone: replays may re-announce old seqs
}

std::uint64_t InternedWorkspace::FeedCursorPosition(FeedCursorId id,
                                                    RelId rel) const {
  CCFP_CHECK(id < cursors_.size() && cursors_[id].active);
  return cursors_[id].pos[rel];
}

void InternedWorkspace::ReleaseFeedCursor(FeedCursorId id) const {
  if (id < cursors_.size()) cursors_[id].active = false;
}

std::size_t InternedWorkspace::RegisteredFeedCursors() const {
  std::size_t n = 0;
  for (const FeedCursor& c : cursors_) n += c.active ? 1 : 0;
  return n;
}

std::uint64_t InternedWorkspace::CompactFeed(RelId rel) {
  std::uint64_t horizon = EventCount(rel);
  for (const FeedCursor& c : cursors_) {
    if (c.active) horizon = std::min(horizon, c.pos[rel]);
  }
  return TrimFeedTo(rel, horizon);
}

std::uint64_t InternedWorkspace::CompactFeeds() {
  std::uint64_t dropped = 0;
  for (RelId rel = 0; rel < scheme_->size(); ++rel) {
    dropped += CompactFeed(rel);
  }
  return dropped;
}

std::uint64_t InternedWorkspace::TrimFeedTo(RelId rel,
                                            std::uint64_t horizon) {
  RelStore& rs = rels_[rel];
  horizon = std::min(horizon, EventCount(rel));
  if (horizon <= rs.feed_base) return 0;
  std::uint64_t dropped = horizon - rs.feed_base;
  rs.feed.erase(rs.feed.begin(),
                rs.feed.begin() + static_cast<std::ptrdiff_t>(dropped));
  rs.feed_base = horizon;
  ++stats_.feed_compactions;
  stats_.feed_events_compacted += dropped;
  if (journal_enabled_) {
    WorkspaceJournalEntry e;
    e.op = WorkspaceJournalEntry::Op::kTrim;
    e.rel = rel;
    e.horizon = horizon;
    JournalRecord(std::move(e));
  }
  return dropped;
}

void InternedWorkspace::SealSharedBase() {
  interner_.Freeze();
  CompactFeeds();
}

InternedWorkspace InternedWorkspace::Fork() const {
  InternedWorkspace fork = *this;
  // Session-local state must not leak into the overlay: the base's
  // registered cursors belong to the base's consumers, and persistence
  // identity is per session.
  fork.cursors_.clear();
  fork.journal_enabled_ = false;
  fork.journal_.clear();
  fork.journal_bytes_ = 0;
  fork.journal_values_base_ = fork.interner_.size();
  fork.snapshot_base_id_ = 0;
  fork.has_snapshot_base_ = false;
  return fork;
}

MemoryBreakdown InternedWorkspace::MemoryUsage() const {
  MemoryBreakdown mb;
  mb.journal = journal_bytes_;
  mb.occurrences =
      memory::VectorBytes(occ_cells_) + memory::VectorBytes(occ_lists_);
  // Every value: its table entry plus union-find parent/size/rep.
  mb.interner = interner_.TableBytes() +
                static_cast<std::uint64_t>(interner_.size()) * 3 *
                    sizeof(std::uint32_t);
  for (RelId rel = 0; rel < scheme_->size(); ++rel) {
    const RelStore& rs = rels_[rel];
    mb.tuple_store += memory::VectorBytes(rs.cells) +
                      memory::VectorBytes(rs.alive);
    mb.dedup_index += rs.dedup.bytes();
    mb.feed += memory::VectorBytes(rs.feed);
    for (const auto& [cols, cp] : partitions_[rel]) {
      const Partition& p = cp.p;
      mb.partitions += memory::VectorBytes(p.group_of) +
                       memory::VectorBytes(p.group_size) + p.keys.bytes();
    }
  }
  return mb;
}

std::uint64_t InternedWorkspace::SharedInternerBytes() const {
  return interner_.SharedTableBytes();
}

namespace {

/// True iff `key` names a group with at least one alive member of `p`
/// (tombstoned groups left behind by surgical repair do not count).
bool HasAliveGroup(const InternedWorkspace::Partition& p, const ValueId* key) {
  std::uint32_t g = p.GroupOfKey(key);
  return g != InternedWorkspace::kNoGroup && p.group_size[g] > 0;
}

bool SatisfiesEmvdOn(const InternedWorkspace& ws, RelId rel,
                     const std::vector<AttrId>& x,
                     const std::vector<AttrId>& y,
                     const std::vector<AttrId>& z) {
  if (ws.AliveTuples(rel) == 0) return true;
  std::vector<AttrId> xy = AppendDistinctAttrs(x, y);
  std::vector<AttrId> xz = AppendDistinctAttrs(x, z);
  const auto& x_p = ws.partition(rel, x);
  const auto& xy_p = ws.partition(rel, xy);
  const auto& xz_p = ws.partition(rel, xz);
  // Per X-group distinct XY / XZ / (XY, XZ) counts. XY refines X, so an XY
  // group belongs to exactly one X group (likewise XZ and pairs) — the
  // group obeys the EMVD iff pairs == xy_distinct * xz_distinct.
  std::vector<std::uint32_t> ny(x_p.group_count, 0);
  std::vector<std::uint32_t> nz(x_p.group_count, 0);
  std::vector<std::uint64_t> np(x_p.group_count, 0);
  std::vector<std::uint8_t> seen_xy(xy_p.group_count, 0);
  std::vector<std::uint8_t> seen_xz(xz_p.group_count, 0);
  std::unordered_set<std::uint64_t> pairs;
  pairs.reserve(ws.AliveTuples(rel));
  std::uint32_t n = static_cast<std::uint32_t>(ws.size(rel));
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t g = x_p.group_of[i];
    if (g == InternedWorkspace::kNoGroup) continue;
    std::uint32_t gy = xy_p.group_of[i];
    std::uint32_t gz = xz_p.group_of[i];
    if (!seen_xy[gy]) {
      seen_xy[gy] = 1;
      ++ny[g];
    }
    if (!seen_xz[gz]) {
      seen_xz[gz] = 1;
      ++nz[g];
    }
    if (pairs.insert(PackIdPair(gy, gz)).second) ++np[g];
  }
  for (std::uint32_t g = 0; g < x_p.group_count; ++g) {
    if (static_cast<std::uint64_t>(ny[g]) * nz[g] != np[g]) return false;
  }
  return true;
}

std::optional<IdViolation> FindEmvdViolation(const InternedWorkspace& ws,
                                             RelId rel,
                                             const std::vector<AttrId>& x,
                                             const std::vector<AttrId>& y,
                                             const std::vector<AttrId>& z) {
  if (SatisfiesEmvdOn(ws, rel, x, y, z)) return std::nullopt;
  std::vector<AttrId> xy = AppendDistinctAttrs(x, y);
  std::vector<AttrId> xz = AppendDistinctAttrs(x, z);
  const auto& x_p = ws.partition(rel, x);
  const auto& xy_p = ws.partition(rel, xy);
  const auto& xz_p = ws.partition(rel, xz);
  std::uint32_t n = static_cast<std::uint32_t>(ws.size(rel));
  std::unordered_set<std::uint64_t> pairs;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (x_p.group_of[i] == InternedWorkspace::kNoGroup) continue;
    pairs.insert(PackIdPair(xy_p.group_of[i], xz_p.group_of[i]));
  }
  // Diagnostics path only: quadratic scan for the first same-group pair
  // whose (XY, XZ) combination has no witness tuple.
  for (std::uint32_t i = 0; i < n; ++i) {
    if (x_p.group_of[i] == InternedWorkspace::kNoGroup) continue;
    for (std::uint32_t j = 0; j < n; ++j) {
      if (x_p.group_of[i] != x_p.group_of[j]) continue;
      if (pairs.count(PackIdPair(xy_p.group_of[i], xz_p.group_of[j])) == 0) {
        return IdViolation{rel, {i, j}};
      }
    }
  }
  return IdViolation{rel, {}};  // unreachable if Satisfies was false
}

}  // namespace

bool InternedWorkspace::Satisfies(const Fd& fd) const {
  if (AliveTuples(fd.rel) == 0) return true;
  const Partition& lhs = partition(fd.rel, fd.lhs);
  const Partition& rhs = partition(fd.rel, fd.rhs);
  // The FD holds iff the lhs partition refines the rhs partition.
  std::vector<std::uint32_t> seen(lhs.group_count, UINT32_MAX);
  std::uint32_t n = static_cast<std::uint32_t>(size(fd.rel));
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t g = lhs.group_of[i];
    if (g == kNoGroup) continue;
    std::uint32_t h = rhs.group_of[i];
    if (seen[g] == UINT32_MAX) {
      seen[g] = h;
    } else if (seen[g] != h) {
      return false;
    }
  }
  return true;
}

bool InternedWorkspace::Satisfies(const Ind& ind) const {
  if (AliveTuples(ind.lhs_rel) == 0) return true;
  const Partition& lhs_p = partition(ind.lhs_rel, ind.lhs);
  const Partition& rhs_p = partition(ind.rhs_rel, ind.rhs);
  // Each alive lhs group's key IS the projection of its members onto
  // ind.lhs — probe it into the rhs partition directly.
  for (std::uint32_t g = 0; g < lhs_p.group_count; ++g) {
    if (lhs_p.group_size[g] == 0) continue;  // tombstone
    if (!HasAliveGroup(rhs_p, lhs_p.key(g))) return false;
  }
  return true;
}

bool InternedWorkspace::Satisfies(const Rd& rd) const {
  const RelStore& rs = rels_[rd.rel];
  for (std::uint32_t i = 0; i < rs.alive.size(); ++i) {
    if (!rs.alive[i]) continue;
    IdRow t = rs.row(i);
    for (std::size_t k = 0; k < rd.lhs.size(); ++k) {
      if (t[rd.lhs[k]] != t[rd.rhs[k]]) return false;
    }
  }
  return true;
}

bool InternedWorkspace::Satisfies(const Emvd& emvd) const {
  return SatisfiesEmvdOn(*this, emvd.rel, emvd.x, emvd.y, emvd.z);
}

bool InternedWorkspace::Satisfies(const Mvd& mvd) const {
  return SatisfiesEmvdOn(*this, mvd.rel, mvd.x, mvd.y,
                         MvdComplement(*scheme_, mvd));
}

bool InternedWorkspace::Satisfies(const Dependency& dep) const {
  switch (dep.kind()) {
    case DependencyKind::kFd:
      return Satisfies(dep.fd());
    case DependencyKind::kInd:
      return Satisfies(dep.ind());
    case DependencyKind::kRd:
      return Satisfies(dep.rd());
    case DependencyKind::kEmvd:
      return Satisfies(dep.emvd());
    case DependencyKind::kMvd:
      return Satisfies(dep.mvd());
  }
  return false;
}

bool InternedWorkspace::SatisfiesAll(
    const std::vector<Dependency>& deps) const {
  for (const Dependency& dep : deps) {
    if (!Satisfies(dep)) return false;
  }
  return true;
}

std::optional<IdViolation> InternedWorkspace::FindViolation(
    const Dependency& dep) const {
  switch (dep.kind()) {
    case DependencyKind::kFd: {
      const Fd& fd = dep.fd();
      if (AliveTuples(fd.rel) == 0) return std::nullopt;
      const Partition& lhs = partition(fd.rel, fd.lhs);
      const Partition& rhs = partition(fd.rel, fd.rhs);
      std::vector<std::uint32_t> first(lhs.group_count, UINT32_MAX);
      std::uint32_t n = static_cast<std::uint32_t>(size(fd.rel));
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t g = lhs.group_of[i];
        if (g == kNoGroup) continue;
        if (first[g] == UINT32_MAX) {
          first[g] = i;
        } else if (rhs.group_of[first[g]] != rhs.group_of[i]) {
          return IdViolation{fd.rel, {first[g], i}};
        }
      }
      return std::nullopt;
    }
    case DependencyKind::kInd: {
      const Ind& ind = dep.ind();
      const Partition& lhs_p = partition(ind.lhs_rel, ind.lhs);
      const Partition& rhs_p = partition(ind.rhs_rel, ind.rhs);
      // Front-to-back over slots, probing each group once — the first
      // slot of the first missing group in slot order is the witness,
      // identical to a legacy front-to-back scan (and independent of the
      // group numbering, which repairs do not keep sorted).
      std::vector<std::uint8_t> checked(lhs_p.group_count, 0);
      std::uint32_t n = static_cast<std::uint32_t>(size(ind.lhs_rel));
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t g = lhs_p.group_of[i];
        if (g == kNoGroup || checked[g]) continue;
        checked[g] = 1;
        if (!HasAliveGroup(rhs_p, lhs_p.key(g))) {
          return IdViolation{ind.lhs_rel, {i}};
        }
      }
      return std::nullopt;
    }
    case DependencyKind::kRd: {
      const Rd& rd = dep.rd();
      const RelStore& rs = rels_[rd.rel];
      for (std::uint32_t i = 0; i < rs.alive.size(); ++i) {
        if (!rs.alive[i]) continue;
        IdRow t = rs.row(i);
        for (std::size_t k = 0; k < rd.lhs.size(); ++k) {
          if (t[rd.lhs[k]] != t[rd.rhs[k]]) return IdViolation{rd.rel, {i}};
        }
      }
      return std::nullopt;
    }
    case DependencyKind::kEmvd:
      return FindEmvdViolation(*this, dep.emvd().rel, dep.emvd().x,
                               dep.emvd().y, dep.emvd().z);
    case DependencyKind::kMvd:
      return FindEmvdViolation(*this, dep.mvd().rel, dep.mvd().x,
                               dep.mvd().y, MvdComplement(*scheme_, dep.mvd()));
  }
  return std::nullopt;
}

Database InternedWorkspace::Materialize() const {
  Database out(scheme_);
  for (RelId rel = 0; rel < scheme_->size(); ++rel) {
    const RelStore& rs = rels_[rel];
    out.relation(rel).Reserve(rs.alive_count);
    for (std::uint32_t i = 0; i < rs.alive.size(); ++i) {
      if (!rs.alive[i]) continue;
      Tuple t;
      t.reserve(rs.arity);
      for (ValueId id : rs.row(i)) {
        t.push_back(interner_.value(uf_.Rep(id)));
      }
      out.Insert(rel, std::move(t));
    }
  }
  return out;
}

}  // namespace ccfp
