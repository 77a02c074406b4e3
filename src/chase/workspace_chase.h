#ifndef CCFP_CHASE_WORKSPACE_CHASE_H_
#define CCFP_CHASE_WORKSPACE_CHASE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "chase/chase.h"
#include "core/dependency.h"
#include "core/flat_table.h"
#include "core/workspace.h"
#include "util/status.h"

namespace ccfp {

/// Counters of one WorkspaceChase::Run call (same meanings as ChaseResult).
struct WorkspaceChaseStats {
  ChaseOutcome outcome = ChaseOutcome::kFixpoint;
  std::uint64_t fd_merges = 0;
  std::uint64_t ind_tuples = 0;
  std::uint64_t steps = 0;
};

/// The delta-driven FD+IND chase engine (PR 1/2's incremental engine),
/// re-hosted on a caller-owned InternedWorkspace — the substrate keeps the
/// interner, union-find, tuple stores, and occurrence lists; this class
/// keeps only the rule machinery (per-FD lhs-key indexes, per-IND rhs
/// projection sets, dirty worklists, admission cursors). The rule indexes
/// are flat open-addressed tables (core/flat_table.h) probed with
/// projections built into one reused buffer, and a generated tuple
/// interns only its unconstrained positions as fresh nulls, so the
/// per-tuple kernel allocates nothing beyond the stored row itself.
///
/// The payoff over the one-shot engine is that the chase is *resumable*:
/// after Run() reaches a fixpoint, the caller can append more tuples to the
/// workspace (repair seeds, new probes) and Run() again — only the delta is
/// chased, nothing is re-interned, and the persistent indexes carry over.
/// This is what retires the per-round full re-intern in the Armstrong
/// build -> chase -> verify -> repair loop.
///
/// Invariants: the workspace must not be mutated by anyone else between
/// construction and the last Run() except by appending tuples; after a Run
/// returns kFixpoint every tuple is canonical, so workspace model checking
/// (Satisfies / partitions) is valid until the next append.
///
/// The chase is itself a consumer of the workspace *change feed*: between
/// Runs it admits outside appends by replaying the feed from its cursor
/// (`event_cursor`), and its own merges surface as rewrite/kill events
/// other consumers can replay. In particular, an
/// IncrementalVerifier (verify/verifier.h) attached to the same workspace
/// can verify *mid-chase* — after any Run that reaches kFixpoint — in
/// time proportional to that Run's delta: surgical partition repair means
/// the fixpoint's merges no longer invalidate a single cached partition.
class WorkspaceChase {
 public:
  /// CHECK-fails if any dependency is invalid for the workspace's scheme.
  WorkspaceChase(InternedWorkspace* ws, std::vector<Fd> fds,
                 std::vector<Ind> inds);
  /// Releases the chase's registered feed cursor (so it stops pinning
  /// compaction). The workspace must outlive the chase.
  ~WorkspaceChase();

  WorkspaceChase(const WorkspaceChase&) = delete;
  WorkspaceChase& operator=(const WorkspaceChase&) = delete;

  const std::vector<Fd>& fds() const { return fds_; }
  const std::vector<Ind>& inds() const { return inds_; }

  /// The chase's position in `rel`'s change feed: every event with a
  /// lower sequence number is incorporated into its rule indexes. After a
  /// Run returns kFixpoint this equals the workspace's EventCount(rel);
  /// a ResourceExhausted Run may leave it behind (the next Run resumes).
  std::uint64_t event_cursor(RelId rel) const {
    return admit_cursor_[rel];
  }

  /// Chases everything appended since the last Run (plus its consequences)
  /// to a Sigma fixpoint or failure. Budgets apply per call; `max_tuples`
  /// bounds the workspace's total alive tuples. A kFailed outcome (two
  /// constants merged) is sticky: the workspace is left mid-chase and
  /// further Runs return kFailed immediately. A ResourceExhausted return
  /// leaves the worklists intact (the interrupted slot is requeued), so a
  /// later Run with a larger budget resumes exactly where this one
  /// stopped; the workspace must not be model-checked while exhausted
  /// (tuples may be stale).
  Result<WorkspaceChaseStats> Run(const ChaseOptions& options);

  /// The counters of the most recent Run, readable on *both* return
  /// paths: after a ResourceExhausted Run they say how much work the
  /// interrupted call actually did (its `outcome` is then meaningless).
  const WorkspaceChaseStats& last_run() const { return last_run_; }

 private:
  /// Marks an rhs position an IND leaves unconstrained (IndState::source).
  static constexpr std::uint32_t kFreshNull = UINT32_MAX;

  struct IndState {
    /// Canonical rhs projections present in the rhs relation. Insert-only:
    /// entries whose ids have since been merged away contain non-root ids
    /// and can never collide with a canonical probe key, so stale entries
    /// are harmless.
    IdKeySet rhs_keys;
    /// Per rhs-relation position: the index into the lhs projection that
    /// fills it in a generated tuple, or kFreshNull.
    std::vector<std::uint32_t> source;
    /// Lhs slots whose canonical form changed since the last pass.
    std::vector<std::uint32_t> dirty;
    /// Lhs slots below this index were scanned in earlier passes.
    std::uint32_t cursor = 0;
  };

  /// Periodic budget checkpoint for the inner loops: consults the
  /// kEngineExhaust fault site every call and, every 64th call, the
  /// wall-clock deadline and the workspace byte ceiling. Returning
  /// ResourceExhausted here is always resumable (callers requeue).
  Status BudgetCheckpoint();
  /// Writes the canonical projection of slot (rel, idx) onto `cols` —
  /// ids mapped through the union-find, valid even while the slot is
  /// stale — into the reused buffer `key_`.
  void Project(RelId rel, std::uint32_t idx, const std::vector<AttrId>& cols);
  void EnqueueFdDirty(RelId rel, std::uint32_t idx);
  void RegisterRhsProjections(RelId rel, std::uint32_t idx);
  /// Takes a freshly appended slot under management: rhs projections into
  /// every IND targeting its relation, plus an FD-dirty enqueue.
  void AdmitSlot(RelId rel, std::uint32_t idx);
  /// Replays the change feed from the admission cursors, admitting every
  /// append published since the last call (rewrites/kills are the chase's
  /// own moves and already tracked by its worklists).
  void AdmitAppended();
  Status ProbeFd(std::uint32_t fd_id, RelId rel, std::uint32_t idx);
  Status DrainFdDirty();
  Status ProbeInd(std::uint32_t ind_id, std::uint32_t idx, bool* any);
  Status IndPass(bool* any);

  InternedWorkspace* ws_;
  std::vector<Fd> fds_;
  std::vector<Ind> inds_;

  std::vector<std::vector<std::uint32_t>> fds_by_rel_;
  std::vector<IdKeyTable> fd_index_;  // per FD: lhs key -> representative slot
  std::vector<IndState> ind_states_;
  std::vector<std::vector<std::uint32_t>> inds_by_lhs_rel_;
  std::vector<std::vector<std::uint32_t>> inds_by_rhs_rel_;

  std::deque<WorkspaceTupleRef> fd_dirty_;
  std::vector<std::vector<std::uint8_t>> queued_;  // per rel, per slot
  std::vector<std::uint32_t> admitted_;            // per rel: admitted prefix
  std::vector<std::uint64_t> admit_cursor_;        // per rel: feed position
  IdTuple key_;    ///< projection buffer shared by every probe
  IdTuple fresh_;  ///< generated-tuple buffer (Append copies it)
  InternedWorkspace::FeedCursorId feed_cursor_ = 0;  ///< pins compaction
  bool failed_ = false;

  // Per-Run budget counters (reset by Run).
  const ChaseOptions* options_ = nullptr;
  WorkspaceChaseStats last_run_;
  std::uint64_t checkpoint_tick_ = 0;
};

}  // namespace ccfp

#endif  // CCFP_CHASE_WORKSPACE_CHASE_H_
