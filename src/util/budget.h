#ifndef CCFP_UTIL_BUDGET_H_
#define CCFP_UTIL_BUDGET_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ccfp {

/// How much of a Budget an engine (or one solver stage) actually consumed.
/// The counters mirror Budget's resource axes; engines fill in the ones
/// they meter and leave the rest at zero.
struct BudgetUse {
  std::uint64_t steps = 0;        ///< rule firings / merges / candidates
  std::uint64_t tuples = 0;       ///< tuples materialized or held alive
  std::uint64_t expressions = 0;  ///< BFS nodes / derived sentences

  BudgetUse& Add(const BudgetUse& other) {
    steps += other.steps;
    tuples += other.tuples;
    expressions += other.expressions;
    return *this;
  }

  /// "steps=12 tuples=3 expressions=0".
  std::string ToString() const;
};

/// The one budget vocabulary shared by every implication engine. The
/// implication problem for FDs and INDs together is undecidable, and even
/// the decidable fragments are PSPACE-hard, so every entry point is
/// budgeted — but before this type each engine grew its own `max_*` knob
/// (ChaseOptions::max_steps/max_tuples, IndDecisionOptions::max_expressions,
/// BoundedSearchOptions::max_candidates, MixedDerivation's
/// max_dependencies) with incompatible defaults and outcome encodings.
/// A Budget names the three resource axes those knobs actually meter, plus
/// an optional wall-clock deadline:
///
///   * `steps`       — rule firings: chase merges/generations, bounded-
///                     search candidate evaluations;
///   * `tuples`      — materialized tuples a chase may hold alive;
///   * `expressions` — graph nodes: IND-BFS expressions, derived sentences
///                     of the saturation engine;
///   * `bytes`       — a ceiling on *live* logical bytes (workspace +
///                     watcher state, metered via util/memory_budget.h).
///                     Unlike the counters above it is not consumed: it
///                     bounds resident state, so Split() shares it
///                     unchanged, like the deadline. Engines check it at
///                     periodic checkpoints and return ResourceExhausted
///                     with resumable state when live bytes exceed it.
///   * `deadline`    — a steady-clock instant after which multi-stage
///                     drivers (the ImplicationSolver) stop launching new
///                     stages and engines that meter it (WorkspaceChase
///                     FD-fixpoint inner loops) stop mid-round.
///
/// Exhausting a Budget is never an error and never aborts: engines report
/// ResourceExhausted / Verdict::kUnknown and leave resumable state where
/// they support it (WorkspaceChase).
struct Budget {
  std::uint64_t steps = 1ull << 20;
  std::uint64_t tuples = 1ull << 18;
  std::uint64_t expressions = 1ull << 22;
  std::uint64_t bytes = UINT64_MAX;
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// A deliberately tiny budget, for exercising exhaustion paths.
  static Budget Tiny();

  /// Default counters plus a ceiling of `limit` live logical bytes.
  static Budget WithByteCeiling(std::uint64_t limit);

  /// Staged allocation: an even share of every counter for one of `parts`
  /// sequential stages; the deadline and the byte ceiling — limits on
  /// shared state, not consumable rates — pass through unchanged.
  ///
  /// Drained-share semantics: a *nonzero* counter splits to at least 1
  /// (so a stage handed a sliver can always fire once), but a counter
  /// already at 0 splits to 0 — a fully drained budget must hand every
  /// stage a drained share, not resurrect one step per stage. Engines
  /// treat a 0 counter as immediate ResourceExhausted.
  Budget Split(unsigned parts) const;

  /// Ladder allocation for a portfolio of *priority-ordered* probes
  /// ("rungs"): rung i declares the `steps` it could consume at most
  /// (`costs[i]`, e.g. a bounded search's candidate-space upper bound),
  /// and shares are granted greedily in rung order — rung 0 is funded up
  /// to its full cost before rung 1 sees a single step, and so on until
  /// the budget drains. Two consequences the refutation portfolio builds
  /// on (search/portfolio.h):
  ///
  ///   * rung 0 behaves exactly as if it had the whole budget — its share
  ///     is min(costs[0], steps), and a probe can never consume more than
  ///     its declared cost — so prefixing a ladder onto a previously
  ///     single-shape stage changes nothing about that shape's outcome;
  ///   * the allocation is computed up front from (steps, costs) alone,
  ///     so each rung's ceiling is fixed before the sweep starts and does
  ///     not depend on what the rungs below it consumed.
  ///
  /// Rungs past the drained point get a 0-step share (drained stays
  /// drained — callers skip them, counted, rather than run them). The
  /// `tuples` / `expressions` counters, the byte ceiling, and the
  /// deadline pass through unchanged: the ladder meters its probes
  /// through `steps` alone, and the others are limits each rung checks
  /// independently against shared state.
  std::vector<Budget> SplitLadder(
      const std::vector<std::uint64_t>& costs) const;

  /// True iff a deadline is set and has passed.
  bool Expired() const {
    return deadline.has_value() &&
           std::chrono::steady_clock::now() >= *deadline;
  }

  /// "steps=1048576 tuples=262144 expressions=4194304 deadline=none".
  std::string ToString() const;
};

}  // namespace ccfp

#endif  // CCFP_UTIL_BUDGET_H_
