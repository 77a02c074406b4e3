#ifndef CCFP_ARMSTRONG_BUILDER_H_
#define CCFP_ARMSTRONG_BUILDER_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "axiom/oracle.h"
#include "chase/chase.h"
#include "chase/workspace_chase.h"
#include "core/database.h"
#include "core/dependency.h"
#include "core/snapshot.h"
#include "core/workspace.h"
#include "util/status.h"
#include "verify/verifier.h"

namespace ccfp {

/// Builder for Armstrong databases of FD+IND sets: a finite database that
/// obeys *exactly* the consequences of Sigma within a given sentence
/// universe (Fagin–Vardi [FV], cited by the paper, proved such databases
/// exist for FDs and INDs). The paper's Figures 6.1 and 7.1–7.5 are
/// hand-built Armstrong databases; this module mechanizes their
/// construction so the Section 6/7 lemmas can be re-verified for any
/// parameter value.
///
/// Construction: seed each relation with generic tuples engineered to
/// violate every non-consequence (pairs agreeing exactly on an FD's lhs,
/// plus isolated generic tuples against stray INDs), chase to a Sigma
/// fixpoint, verify exactness, and add repair seeds for any dependency that
/// is accidentally satisfied; repeat to a bounded number of rounds.

struct ArmstrongBuildOptions {
  ChaseOptions chase;
  /// Maximum repair rounds before giving up.
  int max_repair_rounds = 8;
};

struct ArmstrongReport {
  Database db;
  /// Expected consequence set used for verification (subset of universe).
  std::vector<Dependency> expected;
  int repair_rounds = 0;
  /// Substrate counters at the end of the build (how many partitions were
  /// extended vs rebuilt, tuples appended, ...). Lets callers and tests
  /// prove the rounds reused one workspace instead of re-interning.
  InternedWorkspace::Stats workspace_stats;

  explicit ArmstrongReport(Database database) : db(std::move(database)) {}
};

/// Builds an Armstrong database for (fds, inds) relative to `universe`.
/// `oracle` decides which universe members are consequences of Sigma (use a
/// ChaseOracle for unrestricted implication). Fails with
/// FailedPrecondition if the oracle answers kUnknown on some member, with
/// ResourceExhausted if the chase diverges, and with Internal if repair
/// rounds run out. One InternedWorkspace is threaded through every round:
/// seeds are appended in id-space, a resumable WorkspaceChase continues
/// from the previous fixpoint (only the repair delta is chased), and
/// verification sweeps the workspace's cached partitions (a one-shot
/// build verifies once, so compiling ArmstrongSession's watchers would
/// buy nothing). The re-chase-per-round reference in
/// tests/reference/armstrong.h also builds verified-exact databases; its
/// tuples may differ (this builder keeps chase consequences across rounds
/// instead of re-deriving them).
Result<ArmstrongReport> BuildArmstrongDatabase(
    SchemePtr scheme, const std::vector<Fd>& fds,
    const std::vector<Ind>& inds, const std::vector<Dependency>& universe,
    const ImplicationOracle& oracle,
    const ArmstrongBuildOptions& options = {});

/// A *multi-round* Armstrong construction: one persistent workspace, chase,
/// and verifier maintained while the sentence universe grows — the shape of
/// the paper's k-ary hierarchy experiments (grow the universe one lattice
/// level, or even one sentence, at a time) and of interactive schema-design
/// sessions.
///
/// Each `Extend(delta)` classifies the new members through the oracle,
/// appends targeted violation seeds for the new non-consequences, resumes
/// the chase over just that delta, runs the usual repair loop, and
/// re-verifies exactness over the *entire universe so far* — so after
/// every Extend the session again holds a verified-exact Armstrong
/// database for (Sigma, universe). Incremental dependency watchers
/// (verify/verifier.h) consume the workspace change feed, so the
/// re-verification costs O(delta + new members), not O(universe *
/// database): old members' watchers answer from counters, and only the
/// new members pay an O(n) initialization.
class ArmstrongSession {
 public:
  /// Seeds two generic tuples per relation (the builder's base seeds).
  /// `oracle` must outlive the session.
  ArmstrongSession(SchemePtr scheme, std::vector<Fd> fds,
                   std::vector<Ind> inds, const ImplicationOracle* oracle,
                   const ArmstrongBuildOptions& options = {});

  /// Warm start *without replay* from a restored chain (core/snapshot.h):
  /// adopts the workspace AND the persisted universe classification (the
  /// `aux` record Checkpoint wrote — see SessionClassificationRecord).
  /// The interned tuples, value table, union-find and cached partitions
  /// are taken as-is: nothing is re-interned and no base seeds are added.
  /// The session is immediately in the state the saver left it in:
  /// universe, expected set, and repair targets are rebuilt with zero
  /// oracle calls, and the watchers initialize straight from the adopted
  /// substrate. `ws` must be over the same scheme, and `record` must come
  /// from the same save as `ws`.
  ArmstrongSession(InternedWorkspace ws, SessionClassificationRecord record,
                   std::vector<Fd> fds, std::vector<Ind> inds,
                   const ImplicationOracle* oracle,
                   const ArmstrongBuildOptions& options = {});

  /// Writes one chain record (base or delta, per the writer's fold
  /// policy) carrying the workspace and the universe classification, and
  /// no consumer cursors: a warm start's fresh watchers rebuild from the
  /// alive ranks. Call it after a successful Extend. On failure —
  /// including an injected crash — the session stays valid and the
  /// workspace journal is retained, so a retry writes a superset record
  /// at the same chain position.
  Status Checkpoint(SnapshotChainWriter& chain) const;

  /// Grows the universe by `delta` (members already known are skipped),
  /// re-establishes exactness, and reports the same failure modes as
  /// BuildArmstrongDatabase. On an error the session may be left
  /// partially extended; discard it rather than Extend further.
  Status Extend(const std::vector<Dependency>& delta);

  const DatabaseScheme& scheme() const { return *scheme_; }
  const std::vector<Dependency>& universe() const { return universe_; }
  const std::vector<Dependency>& expected() const { return expected_; }
  /// Total repair rounds across every Extend so far.
  int repair_rounds() const { return repair_rounds_; }
  const InternedWorkspace::Stats& workspace_stats() const {
    return ws_.stats();
  }
  const InternedWorkspace& workspace() const { return ws_; }

  /// The current Armstrong database (alive tuples, slot order preserved).
  Database Snapshot() const { return ws_.Materialize(); }

 private:
  friend Result<ArmstrongReport> BuildArmstrongDatabase(
      SchemePtr scheme, const std::vector<Fd>& fds,
      const std::vector<Ind>& inds, const std::vector<Dependency>& universe,
      const ImplicationOracle& oracle, const ArmstrongBuildOptions& options);

  /// Seeds like the public constructor; `watch` false verifies every
  /// round by full sweep instead of watchers (BuildArmstrongDatabase's
  /// one-Extend session).
  ArmstrongSession(SchemePtr scheme, std::vector<Fd> fds,
                   std::vector<Ind> inds, const ImplicationOracle* oracle,
                   const ArmstrongBuildOptions& options, bool watch);
  /// Adopts `ws` with no base seeds and no classification (the record
  /// constructor's delegate).
  ArmstrongSession(InternedWorkspace ws, std::vector<Fd> fds,
                   std::vector<Ind> inds, const ImplicationOracle* oracle,
                   const ArmstrongBuildOptions& options);

  /// The build loop body: chase to fixpoint, re-check every current
  /// non-consequence, seed repairs, repeat; then re-verify exactness.
  Status ChaseVerifyRepair();
  /// Exactness over the whole universe: watcher counters, or a sweep
  /// when the session has no verifier.
  Status VerifyExactness();

  SchemePtr scheme_;
  std::vector<Fd> fds_;
  std::vector<Ind> inds_;
  const ImplicationOracle* oracle_;
  ArmstrongBuildOptions options_;

  InternedWorkspace ws_;
  WorkspaceChase chaser_;
  /// Absent only in BuildArmstrongDatabase's sweep session.
  std::unique_ptr<IncrementalVerifier> verifier_;

  std::vector<Dependency> sigma_deps_;  ///< fds_ + inds_ for the oracle
  std::vector<Dependency> universe_;
  std::vector<Dependency> expected_;
  std::vector<Dependency> must_fail_;
  /// Watch handles parallel to universe_ / must_fail_ (with a verifier)
  /// — cached so re-verification rounds are pure counter reads, not
  /// dependency-hash lookups.
  std::vector<WatchId> universe_ids_;
  std::vector<bool> universe_expected_;  ///< parallel to universe_
  std::vector<WatchId> must_fail_ids_;
  std::unordered_set<Dependency, DependencyHash> known_;
  int repair_rounds_ = 0;
};

}  // namespace ccfp

#endif  // CCFP_ARMSTRONG_BUILDER_H_
