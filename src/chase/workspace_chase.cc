#include "chase/workspace_chase.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/check.h"
#include "util/fault.h"

namespace ccfp {

WorkspaceChase::WorkspaceChase(InternedWorkspace* ws, std::vector<Fd> fds,
                               std::vector<Ind> inds)
    : ws_(ws), fds_(std::move(fds)), inds_(std::move(inds)) {
  const DatabaseScheme& scheme = ws_->scheme();
  for (const Fd& fd : fds_) {
    Status st = Validate(scheme, fd);
    CCFP_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
  for (const Ind& ind : inds_) {
    Status st = Validate(scheme, ind);
    CCFP_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
  std::size_t n = scheme.size();
  fds_by_rel_.resize(n);
  for (std::uint32_t i = 0; i < fds_.size(); ++i) {
    fds_by_rel_[fds_[i].rel].push_back(i);
  }
  for (const Fd& fd : fds_) fd_index_.emplace_back(fd.lhs.size());
  ind_states_.resize(inds_.size());
  inds_by_lhs_rel_.resize(n);
  inds_by_rhs_rel_.resize(n);
  for (std::uint32_t i = 0; i < inds_.size(); ++i) {
    const Ind& ind = inds_[i];
    inds_by_lhs_rel_[ind.lhs_rel].push_back(i);
    inds_by_rhs_rel_[ind.rhs_rel].push_back(i);
    IndState& is = ind_states_[i];
    is.rhs_keys = IdKeySet(ind.width());
    is.source.assign(scheme.relation(ind.rhs_rel).arity(), kFreshNull);
    for (std::uint32_t k = 0; k < ind.width(); ++k) is.source[ind.rhs[k]] = k;
  }
  queued_.resize(n);
  admitted_.resize(n, 0);
  admit_cursor_.resize(n, 0);
  feed_cursor_ = ws_->RegisterFeedCursor();
}

WorkspaceChase::~WorkspaceChase() { ws_->ReleaseFeedCursor(feed_cursor_); }

Status WorkspaceChase::BudgetCheckpoint() {
  if (FaultFires(FaultSite::kEngineExhaust)) {
    return Status::ResourceExhausted("injected chase exhaustion");
  }
  if ((checkpoint_tick_++ & 63) != 0) return Status::OK();
  if (options_->deadline.has_value() &&
      std::chrono::steady_clock::now() >= *options_->deadline) {
    return Status::ResourceExhausted("chase deadline exceeded");
  }
  if (options_->max_bytes != UINT64_MAX &&
      ws_->MemoryUsage().Total() > options_->max_bytes) {
    return Status::ResourceExhausted("chase byte ceiling exceeded");
  }
  return Status::OK();
}

void WorkspaceChase::Project(RelId rel, std::uint32_t idx,
                             const std::vector<AttrId>& cols) {
  IdRow t = ws_->tuple(rel, idx);
  key_.clear();
  for (AttrId c : cols) key_.push_back(ws_->Canon(t[c]));
}

void WorkspaceChase::EnqueueFdDirty(RelId rel, std::uint32_t idx) {
  std::vector<std::uint8_t>& q = queued_[rel];
  if (q.size() <= idx) q.resize(ws_->size(rel), 0);
  if (q[idx]) return;
  q[idx] = 1;
  fd_dirty_.push_back(WorkspaceTupleRef{rel, idx});
}

void WorkspaceChase::RegisterRhsProjections(RelId rel, std::uint32_t idx) {
  for (std::uint32_t ind_id : inds_by_rhs_rel_[rel]) {
    Project(rel, idx, inds_[ind_id].rhs);
    ind_states_[ind_id].rhs_keys.Insert(key_.data());
  }
}

void WorkspaceChase::AdmitSlot(RelId rel, std::uint32_t idx) {
  RegisterRhsProjections(rel, idx);
  EnqueueFdDirty(rel, idx);
  if (admitted_[rel] <= idx) admitted_[rel] = idx + 1;
}

void WorkspaceChase::AdmitAppended() {
  for (RelId rel = 0; rel < ws_->scheme().size(); ++rel) {
    std::uint64_t end = ws_->EventCount(rel);
    if (admit_cursor_[rel] < ws_->FeedBase(rel)) {
      // Behind the compaction horizon: the cursor starts at 0, so the
      // first admission over a workspace whose feeds were compacted
      // before this chase registered (a warm-started ArmstrongSession, a
      // fork of a sealed core) lands here. The feed delta is gone, but
      // between Runs outside parties only append, so scanning the
      // unadmitted slot suffix recovers exactly the lost events.
      std::uint32_t size = static_cast<std::uint32_t>(ws_->size(rel));
      for (std::uint32_t idx = admitted_[rel]; idx < size; ++idx) {
        AdmitSlot(rel, idx);
      }
    } else {
      for (std::uint64_t seq = admit_cursor_[rel]; seq < end; ++seq) {
        const WorkspaceEvent& ev = ws_->event(rel, seq);
        // The chase's own appends were admitted inline (ProbeInd) and its
        // own rewrites/kills are tracked by the dirty worklists; only
        // appends published by outside parties are news.
        if (ev.kind == WorkspaceEventKind::kAppend &&
            ev.idx >= admitted_[rel]) {
          AdmitSlot(rel, ev.idx);
        }
      }
    }
    admit_cursor_[rel] = end;
    ws_->AdvanceFeedCursor(feed_cursor_, rel, end);
  }
}

/// Probes one (canonical, alive) slot against one FD's persistent lhs-key
/// index, merging right-hand sides on a key hit.
Status WorkspaceChase::ProbeFd(std::uint32_t fd_id, RelId rel,
                               std::uint32_t idx) {
  const Fd& fd = fds_[fd_id];
  IdKeyTable& index = fd_index_[fd_id];
  Project(rel, idx, fd.lhs);
  auto [entry, inserted] = index.Insert(key_.data(), idx);
  if (inserted || index.value(entry) == idx) return Status::OK();
  std::uint32_t rep = index.value(entry);
  IdRow rep_t = ws_->tuple(rel, rep);
  // The entry may be stale: the representative's key can have drifted
  // since insertion (its ids merged). A drifted rep was dirtied by the
  // merge and will re-index itself under its new key, so just take over.
  for (std::size_t i = 0; i < fd.lhs.size(); ++i) {
    if (ws_->Canon(rep_t[fd.lhs[i]]) != key_[i]) {
      index.set_value(entry, idx);
      return Status::OK();
    }
  }
  IdRow t = ws_->tuple(rel, idx);
  for (AttrId y : fd.rhs) {
    ValueId a = ws_->Canon(t[y]);
    ValueId b = ws_->Canon(rep_t[y]);
    if (a == b) continue;
    InternedWorkspace::MergeResult u = ws_->MergeValues(a, b);
    if (u.clash) {
      failed_ = true;
      return Status::OK();
    }
    ++last_run_.fd_merges;
    // Dirty every slot that stores the losing id — the delta the merge
    // actually touches — then hand its occurrence list to the winner.
    // This must happen *before* the budget check: a ResourceExhausted
    // return with the merge recorded but its slots neither dirtied nor
    // rerouted would leave the workspace unresumable (stale tuples no
    // worklist entry will ever revisit).
    for (const WorkspaceTupleRef& ref : ws_->occurrences(u.loser)) {
      EnqueueFdDirty(ref.rel, ref.idx);
    }
    ws_->RerouteOccurrences(u.loser, u.winner);
    if (++last_run_.steps > options_->max_steps) {
      return Status::ResourceExhausted("chase step budget exhausted");
    }
  }
  return Status::OK();
}

/// Drains the dirty worklist: re-canonicalize, re-deduplicate, and
/// re-probe each touched slot until the FD fixpoint is reached.
Status WorkspaceChase::DrainFdDirty() {
  while (!fd_dirty_.empty() && !failed_) {
    // Checked per slot, *inside* the FD fixpoint: one huge round can no
    // longer blow past the deadline or the byte ceiling unobserved.
    // Checking before the pop keeps exhaustion trivially resumable.
    CCFP_RETURN_NOT_OK(BudgetCheckpoint());
    WorkspaceTupleRef ref = fd_dirty_.front();
    fd_dirty_.pop_front();
    queued_[ref.rel][ref.idx] = 0;
    if (!ws_->alive(ref.rel, ref.idx)) continue;
    InternedWorkspace::CanonOutcome c =
        ws_->CanonicalizeTuple(ref.rel, ref.idx);
    if (c == InternedWorkspace::CanonOutcome::kKilled) continue;
    if (c == InternedWorkspace::CanonOutcome::kRewritten) {
      RegisterRhsProjections(ref.rel, ref.idx);
      for (std::uint32_t ind_id : inds_by_lhs_rel_[ref.rel]) {
        ind_states_[ind_id].dirty.push_back(ref.idx);
      }
    }
    for (std::uint32_t fd_id : fds_by_rel_[ref.rel]) {
      Status st = ProbeFd(fd_id, ref.rel, ref.idx);
      if (!st.ok()) {
        // Budget tripped mid-slot: requeue so a later Run with a larger
        // budget re-probes this slot from its first FD (probes are
        // idempotent once their merge is in the union-find).
        EnqueueFdDirty(ref.rel, ref.idx);
        return st;
      }
      if (failed_) return Status::OK();
      if (!ws_->alive(ref.rel, ref.idx)) break;  // merged away by its probe
    }
  }
  return Status::OK();
}

/// Fires one IND on one lhs slot: if its canonical projection is not yet
/// present on the rhs, create the witness with fresh-null padding.
Status WorkspaceChase::ProbeInd(std::uint32_t ind_id, std::uint32_t idx,
                                bool* any) {
  const Ind& ind = inds_[ind_id];
  if (!ws_->alive(ind.lhs_rel, idx)) return Status::OK();
  CCFP_RETURN_NOT_OK(BudgetCheckpoint());
  IndState& is = ind_states_[ind_id];
  Project(ind.lhs_rel, idx, ind.lhs);
  if (is.rhs_keys.Find(key_.data()) != IdKeySet::kNone) return Status::OK();
  if (FaultFires(FaultSite::kArenaAppend)) {
    // The arena refused to grow. Nothing is registered yet, so a resumed
    // Run re-probes this slot and creates the witness then.
    return Status::ResourceExhausted("injected arena allocation failure");
  }
  is.rhs_keys.Insert(key_.data());
  std::size_t arity = is.source.size();
  fresh_.resize(arity);
  // One label per position, the constrained ones left unused — byte-for-
  // byte the numbering of the restart-scan reference chase
  // (tests/reference/chase.h), so both produce identically-labeled
  // databases on deterministic inputs. Only the unconstrained positions
  // are interned; the ids skip the unused labels in order, which keeps
  // every union-find tie-break (and so every merge) unchanged.
  std::uint64_t label = ws_->ReserveNullLabels(arity);
  for (std::size_t a = 0; a < arity; ++a, ++label) {
    std::uint32_t k = is.source[a];
    fresh_[a] = k == kFreshNull ? ws_->Intern(Value::Null(label)) : key_[k];
  }
  *any = true;
  if (ws_->Append(ind.rhs_rel, fresh_)) {
    std::uint32_t new_idx =
        static_cast<std::uint32_t>(ws_->size(ind.rhs_rel)) - 1;
    AdmitSlot(ind.rhs_rel, new_idx);
    ++last_run_.ind_tuples;
    if (++last_run_.steps > options_->max_steps) {
      return Status::ResourceExhausted("chase step budget exhausted");
    }
    if (ws_->TotalAliveTuples() > options_->max_tuples) {
      return Status::ResourceExhausted("chase tuple ceiling exceeded");
    }
  }
  return Status::OK();
}

/// One pass over the INDs in declaration order — each IND only looks at
/// its delta: slots beyond its cursor plus slots whose canonical form
/// changed since its last pass.
Status WorkspaceChase::IndPass(bool* any) {
  for (std::uint32_t ind_id = 0; ind_id < inds_.size(); ++ind_id) {
    const Ind& ind = inds_[ind_id];
    IndState& is = ind_states_[ind_id];
    std::uint32_t end = static_cast<std::uint32_t>(ws_->size(ind.lhs_rel));
    std::vector<std::uint32_t> touched;
    touched.swap(is.dirty);
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    // Ascending over touched-then-new matches the naive full scan's tuple
    // order (touched slots all precede the cursor).
    for (std::size_t t = 0; t < touched.size(); ++t) {
      if (touched[t] >= is.cursor) continue;  // the range below covers it
      Status st = ProbeInd(ind_id, touched[t], any);
      if (!st.ok()) {
        // Budget tripped: put the unprocessed tail (and the current slot,
        // whose probe is idempotent) back on the dirty list so a later
        // Run with a larger budget resumes where this one stopped. The
        // cursor was not advanced, so the fresh range re-scans too.
        is.dirty.insert(is.dirty.end(), touched.begin() + t, touched.end());
        return st;
      }
    }
    for (std::uint32_t idx = is.cursor; idx < end; ++idx) {
      CCFP_RETURN_NOT_OK(ProbeInd(ind_id, idx, any));
    }
    is.cursor = end;
  }
  return Status::OK();
}

Result<WorkspaceChaseStats> WorkspaceChase::Run(const ChaseOptions& options) {
  options_ = &options;
  last_run_ = WorkspaceChaseStats{};
  AdmitAppended();
  while (!failed_) {
    CCFP_RETURN_NOT_OK(DrainFdDirty());
    if (failed_) break;
    bool any = false;
    CCFP_RETURN_NOT_OK(IndPass(&any));
    if (!any) break;
  }
  // Everything published so far — including this Run's own appends,
  // rewrites, and kills — is incorporated; expose that via the cursor so
  // mid-chase verifiers know the chase is caught up with the feed, and
  // advance the registered cursor so compaction can reclaim the prefix.
  for (RelId rel = 0; rel < ws_->scheme().size(); ++rel) {
    admit_cursor_[rel] = ws_->EventCount(rel);
    ws_->AdvanceFeedCursor(feed_cursor_, rel, admit_cursor_[rel]);
  }
  last_run_.outcome =
      failed_ ? ChaseOutcome::kFailed : ChaseOutcome::kFixpoint;
  return last_run_;
}

}  // namespace ccfp
