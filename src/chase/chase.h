#ifndef CCFP_CHASE_CHASE_H_
#define CCFP_CHASE_CHASE_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/database.h"
#include "core/dependency.h"
#include "core/verdict.h"
#include "util/budget.h"
#include "util/status.h"

namespace ccfp {

/// The standard chase for FDs and INDs with labeled nulls:
///   * an FD violation t1[X] = t2[X], t1[Y] != t2[Y] merges values (labeled
///     nulls are replaced; two distinct constants make the chase fail);
///   * an IND violation creates the missing right-hand tuple, padding the
///     unconstrained attributes with *fresh* labeled nulls.
///
/// With cyclic IND sets the chase may run forever — the implication problem
/// for FDs and INDs together is undecidable (Mitchell; Chandra–Vardi), so
/// both entry points take a budget: Chase::Run chases a given database
/// and can report ResourceExhausted; ChaseImplies decides one
/// implication query and reports exhaustion as kUnknown.

struct ChaseOptions {
  std::uint64_t max_steps = 1u << 20;
  std::uint64_t max_tuples = 1u << 18;
  /// Ceiling on the workspace's live logical bytes (util/memory_budget.h);
  /// the engine checks it at periodic checkpoints and stops resumably with
  /// ResourceExhausted when exceeded.
  std::uint64_t max_bytes = UINT64_MAX;
  /// Wall-clock deadline, honored inside FD-fixpoint inner loops (not
  /// just at round boundaries).
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Maps the shared Budget vocabulary onto the chase's knobs
  /// (steps -> max_steps, tuples -> max_tuples, bytes -> max_bytes,
  /// deadline -> deadline).
  static ChaseOptions FromBudget(const Budget& budget) {
    ChaseOptions options;
    options.max_steps = budget.steps;
    options.max_tuples = budget.tuples;
    options.max_bytes = budget.bytes;
    options.deadline = budget.deadline;
    return options;
  }
};

enum class ChaseOutcome : std::uint8_t {
  /// Fixpoint reached; the result satisfies all FDs and INDs.
  kFixpoint,
  /// An FD tried to equate two distinct constants.
  kFailed,
};

struct ChaseResult {
  ChaseOutcome outcome = ChaseOutcome::kFixpoint;
  Database db;
  std::uint64_t fd_merges = 0;
  std::uint64_t ind_tuples = 0;
  std::uint64_t steps = 0;

  explicit ChaseResult(Database database) : db(std::move(database)) {}
};

class Chase {
 public:
  /// CHECK-fails if any dependency is invalid for `scheme`.
  Chase(SchemePtr scheme, std::vector<Fd> fds, std::vector<Ind> inds);

  const std::vector<Fd>& fds() const { return fds_; }
  const std::vector<Ind>& inds() const { return inds_; }

  /// Chases `initial` to a fixpoint (or failure), within budget, on the
  /// delta-driven engine (chase/workspace_chase.h): interned values, dense
  /// union-find, persistent per-FD/per-IND indexes, dirty worklists.
  /// ResourceExhausted means "did not converge in budget" — with cyclic
  /// INDs this is the undecidability surface, not a bug. The restart-scan
  /// reference in tests/reference/chase.h agrees with it on outcome,
  /// counters and the chased database.
  Result<ChaseResult> Run(Database initial,
                          const ChaseOptions& options = {}) const;

 private:
  SchemePtr scheme_;
  std::vector<Fd> fds_;
  std::vector<Ind> inds_;
};

/// The canonical (universal-model) seed database for an implication query
/// on `target`:
///   * FD R: X -> Y  — two tuples agreeing (same nulls) on X;
///   * IND R[X] <= S[Y] — one all-fresh tuple in R;
///   * RD R[X = Y] — one all-fresh tuple in R.
/// Unimplemented for EMVD/MVD targets. ChaseImplies chases it; it is
/// exposed for drivers that seed a WorkspaceChase of their own.
Result<Database> MakeCanonicalSeed(SchemePtr scheme,
                                   const Dependency& target);

/// Verdict-vocabulary outcome of a chase-based implication query.
struct ChaseImplication {
  /// kUnknown iff the chase exhausted its budget before a fixpoint.
  ImplicationVerdict verdict = ImplicationVerdict::kUnknown;
  /// Chase counters — the "proof trace" of a kImplied verdict (the
  /// universal-model argument: target holds in the chased fixpoint).
  std::uint64_t fd_merges = 0;
  std::uint64_t ind_tuples = 0;
  std::uint64_t steps = 0;
  /// The chased fixpoint when kNotImplied: a concrete finite database
  /// satisfying Sigma (re-checked in id-space before it is attached) and
  /// violating the target.
  std::optional<Database> counterexample;
  /// Budget consumed (steps + tuples generated), read from the engine's
  /// counters on every verdict — on kUnknown, what the exhausted run
  /// actually did.
  BudgetUse used;
  /// The engine's ResourceExhausted status when kUnknown; OK otherwise.
  Status exhausted;
  /// True iff the run stopped at a counter ceiling: more steps than
  /// `budget.steps`, or more alive tuples than `budget.tuples` (the engine
  /// returns at the first step past either). Such a stop depends only on
  /// Sigma, the seed and those counters; a stop at the deadline, the byte
  /// ceiling or an injected fault leaves it false.
  bool counter_capped = false;
};

/// The one implication-by-chase entry point: a semi-decision of
/// unrestricted implication Sigma |= target for FD+IND Sigma and an FD /
/// IND / RD target, by chasing the canonical seed of the target (the
/// standard universal-model argument). A fixpoint answers exactly —
/// kImplied iff the target holds in it, kNotImplied with the fixpoint as
/// the counterexample otherwise. Budget exhaustion is the kUnknown
/// verdict (unavoidable, by undecidability), never an error; error
/// statuses are reserved for invalid inputs and engine faults.
/// `Budget()` chases with the ChaseOptions{} caps.
Result<ChaseImplication> ChaseImplies(SchemePtr scheme,
                                      const std::vector<Fd>& fds,
                                      const std::vector<Ind>& inds,
                                      const Dependency& target,
                                      const Budget& budget);

}  // namespace ccfp

#endif  // CCFP_CHASE_CHASE_H_
