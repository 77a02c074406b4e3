#include "armstrong/builder.h"

#include <algorithm>
#include <unordered_set>

#include "core/satisfies.h"
#include "util/check.h"
#include "util/strings.h"

namespace ccfp {

namespace {

// Appends a pair of tuples to `ws` relation fd.rel that agree (share a
// null) exactly on fd.lhs and are generic elsewhere — a seed violating `fd`
// unless the chase proves otherwise. Seeds are born directly in id-space
// (fresh nulls are new ValueIds; nothing is interned from heap Values).
void SeedFdViolationWs(InternedWorkspace& ws, const Fd& fd) {
  std::size_t arity = ws.scheme().relation(fd.rel).arity();
  IdTuple t1(arity, 0), t2(arity, 0);
  for (AttrId a = 0; a < arity; ++a) {
    bool shared =
        std::find(fd.lhs.begin(), fd.lhs.end(), a) != fd.lhs.end();
    t1[a] = ws.InternFreshNull();
    t2[a] = shared ? t1[a] : ws.InternFreshNull();
  }
  ws.Append(fd.rel, std::move(t1));
  ws.Append(fd.rel, std::move(t2));
}

// Appends one generic tuple to `rel` (a seed against INDs/RDs that must be
// violated, and against "empty relation satisfies everything" artifacts).
void SeedGenericTupleWs(InternedWorkspace& ws, RelId rel) {
  std::size_t arity = ws.scheme().relation(rel).arity();
  IdTuple t(arity, 0);
  for (AttrId a = 0; a < arity; ++a) t[a] = ws.InternFreshNull();
  ws.Append(rel, std::move(t));
}

/// Appends the repair seed for an accidentally satisfied non-consequence.
/// Returns an error for dependency kinds the repair loop cannot target.
Status AppendRepairSeedWs(InternedWorkspace& ws, const Dependency& tau) {
  if (tau.is_fd()) {
    SeedFdViolationWs(ws, tau.fd());
  } else if (tau.is_ind()) {
    // A fresh generic tuple in the lhs relation will not have its
    // projection in the rhs unless Sigma forces it (it does not — tau is
    // a non-consequence).
    SeedGenericTupleWs(ws, tau.ind().lhs_rel);
  } else if (tau.is_rd()) {
    SeedGenericTupleWs(ws, tau.rd().rel);
  } else {
    return Status::Unimplemented(
        StrCat("cannot repair dependency kind of ",
               tau.ToString(ws.scheme())));
  }
  return Status::OK();
}

}  // namespace

ArmstrongSession::ArmstrongSession(SchemePtr scheme, std::vector<Fd> fds,
                                   std::vector<Ind> inds,
                                   const ImplicationOracle* oracle,
                                   const ArmstrongBuildOptions& options)
    : ArmstrongSession(std::move(scheme), std::move(fds), std::move(inds),
                       oracle, options, /*watch=*/true) {}

ArmstrongSession::ArmstrongSession(SchemePtr scheme, std::vector<Fd> fds,
                                   std::vector<Ind> inds,
                                   const ImplicationOracle* oracle,
                                   const ArmstrongBuildOptions& options,
                                   bool watch)
    : scheme_(std::move(scheme)),
      fds_(std::move(fds)),
      inds_(std::move(inds)),
      oracle_(oracle),
      options_(options),
      ws_(scheme_),
      chaser_(&ws_, fds_, inds_) {
  for (const Fd& fd : fds_) sigma_deps_.push_back(Dependency(fd));
  for (const Ind& ind : inds_) sigma_deps_.push_back(Dependency(ind));
  for (RelId rel = 0; rel < scheme_->size(); ++rel) {
    SeedGenericTupleWs(ws_, rel);
    SeedGenericTupleWs(ws_, rel);
  }
  // A session exists to be extended round after round — the shape where
  // watchers amortize. Only the one-shot build sweeps instead (see
  // BuildArmstrongDatabase).
  if (watch) verifier_ = std::make_unique<IncrementalVerifier>(&ws_);
}

ArmstrongSession::ArmstrongSession(InternedWorkspace ws, std::vector<Fd> fds,
                                   std::vector<Ind> inds,
                                   const ImplicationOracle* oracle,
                                   const ArmstrongBuildOptions& options)
    : scheme_(ws.scheme_ptr()),
      fds_(std::move(fds)),
      inds_(std::move(inds)),
      oracle_(oracle),
      options_(options),
      ws_(std::move(ws)),
      chaser_(&ws_, fds_, inds_) {
  for (const Fd& fd : fds_) sigma_deps_.push_back(Dependency(fd));
  for (const Ind& ind : inds_) sigma_deps_.push_back(Dependency(ind));
  // No seeding: the adopted workspace already carries the seeds (and
  // every chase consequence and repair) of the session that saved it.
  verifier_ = std::make_unique<IncrementalVerifier>(&ws_);
}

ArmstrongSession::ArmstrongSession(InternedWorkspace ws,
                                   SessionClassificationRecord record,
                                   std::vector<Fd> fds, std::vector<Ind> inds,
                                   const ImplicationOracle* oracle,
                                   const ArmstrongBuildOptions& options)
    : ArmstrongSession(std::move(ws), std::move(fds), std::move(inds), oracle,
                       options) {
  // Adopt the persisted classification verbatim: zero oracle calls. The
  // workspace already satisfies exactness for this universe (it was
  // checkpointed by a session that verified it), so no chase or repair is
  // needed here either — the next Extend picks up where the saver left
  // off. Fresh watchers start at feed cursor 0; when the adopted feed is
  // compacted past that (the normal case), they rebuild their counters
  // from the alive ranks — the same proven path every strayed consumer
  // takes.
  CCFP_CHECK(record.universe.size() == record.expected.size());
  for (std::size_t i = 0; i < record.universe.size(); ++i) {
    const Dependency& tau = record.universe[i];
    bool implied = record.expected[i];
    known_.insert(tau);
    universe_.push_back(tau);
    universe_expected_.push_back(implied);
    if (verifier_) universe_ids_.push_back(verifier_->Watch(tau));
    if (implied) {
      expected_.push_back(tau);
    } else {
      // No violation seeding: the adopted workspace already carries the
      // seeds and repairs of the session that saved it.
      must_fail_.push_back(tau);
      if (verifier_) must_fail_ids_.push_back(universe_ids_.back());
    }
  }
}

Status ArmstrongSession::Checkpoint(SnapshotChainWriter& chain) const {
  SessionClassificationRecord record;
  record.universe = universe_;
  record.expected = universe_expected_;
  return chain.Save(ws_, {}, SerializeSessionRecord(record));
}

Status ArmstrongSession::VerifyExactness() {
  // Cached WatchIds: the incremental re-check is pure counter reads.
  std::optional<std::string> mismatch =
      verifier_ ? ObeysExactlyWatchedIds(*verifier_, universe_,
                                         universe_expected_, universe_ids_)
                : ObeysExactly(ws_, universe_, expected_);
  if (mismatch.has_value()) {
    return Status::Internal(
        StrCat("Armstrong verification failed: ", *mismatch));
  }
  return Status::OK();
}

Status ArmstrongSession::ChaseVerifyRepair() {
  for (int round = 0; round <= options_.max_repair_rounds; ++round) {
    CCFP_ASSIGN_OR_RETURN(WorkspaceChaseStats chased,
                          chaser_.Run(options_.chase));
    if (chased.outcome == ChaseOutcome::kFailed) {
      return Status::Internal(
          "chase failed on an all-null Armstrong seed (constant clash)");
    }
    if (round > 0) ++repair_rounds_;

    bool repaired = false;
    for (std::size_t i = 0; i < must_fail_.size(); ++i) {
      // The incremental engine answers from watcher counters updated by
      // this round's chase delta; the sweep engine re-scans.
      bool satisfied = verifier_ ? verifier_->Satisfies(must_fail_ids_[i])
                                 : ws_.Satisfies(must_fail_[i]);
      if (!satisfied) continue;
      repaired = true;
      CCFP_RETURN_NOT_OK(AppendRepairSeedWs(ws_, must_fail_[i]));
    }
    if (!repaired) return VerifyExactness();
  }
  return Status::Internal(
      StrCat("Armstrong repair did not converge in ",
             options_.max_repair_rounds, " rounds"));
}

Status ArmstrongSession::Extend(const std::vector<Dependency>& delta) {
  for (const Dependency& tau : delta) {
    if (known_.count(tau) > 0) continue;  // already classified
    ImplicationVerdict verdict = oracle_->Implies(sigma_deps_, tau);
    if (verdict == ImplicationVerdict::kUnknown) {
      // Nothing recorded for tau yet, so this particular failure is
      // retryable (e.g. with a better-budgeted oracle).
      return Status::FailedPrecondition(
          StrCat("oracle '", oracle_->name(), "' cannot decide ",
                 tau.ToString(*scheme_)));
    }
    known_.insert(tau);
    universe_.push_back(tau);
    bool implied = verdict == ImplicationVerdict::kImplied;
    universe_expected_.push_back(implied);
    if (verifier_) universe_ids_.push_back(verifier_->Watch(tau));
    if (implied) {
      expected_.push_back(tau);
    } else {
      must_fail_.push_back(tau);
      if (verifier_) must_fail_ids_.push_back(universe_ids_.back());
      if (tau.is_fd()) SeedFdViolationWs(ws_, tau.fd());
    }
  }
  CCFP_RETURN_NOT_OK(ChaseVerifyRepair());
  // Every registered consumer (the chaser, and the verifier when
  // present) sits at the feed tip after a successful round, so
  // compaction trims the whole retained window. A Checkpoint after this
  // Extend carries the feed-trim journal entries in the same record, so
  // a restored workspace's retained feed window matches the live one.
  ws_.CompactFeeds();
  return Status::OK();
}

Result<ArmstrongReport> BuildArmstrongDatabase(
    SchemePtr scheme, const std::vector<Fd>& fds,
    const std::vector<Ind>& inds, const std::vector<Dependency>& universe,
    const ImplicationOracle& oracle, const ArmstrongBuildOptions& options) {
  // The build is a one-Extend session: one InternedWorkspace
  // carries seed, chase fixpoint, and verification state across every
  // repair round. Rounds after the first append only their repair seeds
  // and resume the chase — no value is re-interned, no partition is ever
  // rebuilt, and the repaired delta is all the chase re-processes. A
  // one-shot build verifies the universe essentially once, so it sweeps
  // the cached partitions — watchers would be compiled for a single read.
  ArmstrongSession session(scheme, fds, inds, &oracle, options,
                           /*watch=*/false);
  CCFP_RETURN_NOT_OK(session.Extend(universe));
  ArmstrongReport report(session.Snapshot());
  report.expected = session.expected();
  report.repair_rounds = session.repair_rounds();
  report.workspace_stats = session.workspace_stats();
  return report;
}

}  // namespace ccfp
