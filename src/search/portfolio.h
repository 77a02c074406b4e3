#ifndef CCFP_SEARCH_PORTFOLIO_H_
#define CCFP_SEARCH_PORTFOLIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/dependency.h"
#include "search/bounded.h"
#include "util/budget.h"
#include "util/status.h"

namespace ccfp {

/// One rung of the refutation ladder: which candidate databases a bounded
/// search enumerates (tuples per relation, value-domain size). A shape
/// describes the search *space*; the candidate budget caps the scan.
struct SearchShape {
  std::size_t max_tuples_per_relation = 2;
  std::size_t domain_size = 2;

  bool operator==(const SearchShape& other) const {
    return max_tuples_per_relation == other.max_tuples_per_relation &&
           domain_size == other.domain_size;
  }

  /// "3 tuples/relation over a 2-value domain".
  std::string ToString() const;
};

struct PortfolioOptions {
  /// Rung 0 — always present, always first, and funded before any grown
  /// shape sees a step, so a portfolio sweep decides everything a single
  /// fixed-shape search would (see Budget::SplitLadder). Like any rung it
  /// is skipped when EstimateBoundedSearch says its tables do not fit.
  SearchShape base;
  /// How far the ladder grows each axis beyond the base shape: candidate
  /// rungs are every (t, d) with base.t <= t <= base.t + tuple_growth and
  /// base.d <= d <= base.d + domain_growth.
  std::size_t tuple_growth = 2;
  std::size_t domain_growth = 2;
  /// Ladder truncation after cost-ordering (>= 1; clamped). 1 degenerates
  /// to the classic fixed-shape search.
  std::size_t max_rungs = 6;
  /// Compiled key tables shared across rungs *and* across searches over
  /// the same scheme (the table key includes the domain, so every shape
  /// caches cleanly side by side). Null: the portfolio compiles into a
  /// private per-run workspace shared by its rungs. Not owned.
  BoundedSearchWorkspace* workspace = nullptr;
};

enum class RungStatus : std::uint8_t {
  /// Ran to the end of its shape: no counterexample exists below it.
  kFullScan = 0,
  /// Ran out of its candidate share mid-scan.
  kBudget = 1,
  /// Found the portfolio's winning (raw, unverified) counterexample.
  kFound = 2,
  /// Never ran: statically infeasible, or the ladder budget drained
  /// before this rung. Counted in `rungs_skipped`, never silent — the
  /// note says why.
  kSkipped = 3,
};

const char* RungStatusToString(RungStatus status);

/// What one rung did, in ladder (cost) order.
struct RungReport {
  SearchShape shape;
  RungStatus status = RungStatus::kSkipped;
  /// The candidate ceiling this rung was allotted by Budget::SplitLadder.
  std::uint64_t share = 0;
  /// Candidate evaluations performed (0 for kSkipped).
  std::uint64_t candidates_tested = 0;
  /// The engine that ran (BoundedSearchResult::engine); empty for
  /// kSkipped.
  std::string engine;
  /// Skip reason / scan summary for the solver's stage reports.
  std::string note;
};

struct PortfolioResult {
  static constexpr std::size_t kNoRung = static_cast<std::size_t>(-1);

  /// The winning rung's counterexample — always the lowest-rung, lowest-
  /// candidate-index one (raw: the caller verifies before attaching).
  std::optional<Database> counterexample;
  /// Index into `rungs` of the winning report (kNoRung without a find).
  std::size_t winner = kNoRung;
  /// One report per ladder rung the sweep reached, ladder order: every
  /// swept rung when nothing is found, else the rungs up to and including
  /// the winner (the sweep stops there).
  std::vector<RungReport> rungs;
  /// Totals over `rungs`.
  std::uint64_t candidates_tested = 0;
  std::uint64_t rungs_scanned = 0;  ///< kFullScan count
  std::uint64_t rungs_skipped = 0;  ///< kSkipped count
  /// The largest (highest-cost) fully scanned shape, when any rung ran to
  /// the end of its space — what an exhausted-note should name instead of
  /// the base shape.
  std::optional<SearchShape> largest_scanned;

  /// Folds the report of the sweep range that follows this one on the
  /// same ladder (RefutationPortfolio::RunRungs) into this report, so a
  /// sweep run in two ranges reports exactly what one Run would.
  void Append(PortfolioResult later);
};

/// A portfolio of bounded refutation searches over a deterministic shape
/// ladder, swept in cost order.
///
/// The fixed 2x2 search shape misses every counterexample that needs a
/// third tuple or a third value, returning kUnknown with budget to spare.
/// The portfolio instead generates a ladder of shapes growing both axes,
/// cost-orders it by each shape's candidate-space bound
/// (EstimateBoundedSearch), pre-skips grown rungs whose compiled tables
/// could never fit (hard caps or Budget::bytes — counted in the result,
/// never silent), funds the rungs greedily in ladder order from one Budget
/// (Budget::SplitLadder), and scans the funded rungs one at a time,
/// lowest rung first, stopping at the first counterexample.
///
/// Each rung's candidate ceiling is fixed up front by SplitLadder, so a
/// rung's scan is a deterministic function of (scheme, sigma, target,
/// shape, share), and the winner is the lowest-rung, lowest-candidate-
/// index witness. The wall-clock deadline stays stage-granular (rungs are
/// not deadline-gated mid-scan).
///
/// The sweep can also run in two ranges of one ladder (RunRungs): the
/// solver sweeps the cheap rungs before a chase that may not terminate
/// and the rest after it. Both ranges are funded by the same SplitLadder
/// call, so the pair reproduces Run rung for rung.
class RefutationPortfolio {
 public:
  RefutationPortfolio(SchemePtr scheme, std::vector<Dependency> premises,
                      Dependency conclusion, PortfolioOptions options = {});

  /// The cost-ordered shape ladder (base shape first).
  const std::vector<SearchShape>& ladder() const { return ladder_; }

  /// Runs the portfolio under `budget` (steps fund the ladder; bytes gate
  /// feasibility): the full sweep. Error statuses only for invalid inputs.
  Result<PortfolioResult> Run(const Budget& budget);

  /// Rungs [first, last) of the sweep Run(budget) makes, each funded with
  /// the share the full sweep gives it. Running [0, k) and then, when it
  /// found nothing, [k, ladder().size()) and Append-ing the second report
  /// to the first equals Run(budget) exactly.
  Result<PortfolioResult> RunRungs(const Budget& budget, std::size_t first,
                                   std::size_t last);

  /// How many leading rungs have a candidate bound <= `max_cost`, and at
  /// least 1: rung 0 always counts. Ladder order is cost order, so those
  /// rungs are a prefix of the ladder.
  std::size_t RungsWithin(std::uint64_t max_cost) const;

 private:
  SchemePtr scheme_;
  std::vector<Dependency> premises_;
  Dependency conclusion_;
  PortfolioOptions options_;

  std::vector<SearchShape> ladder_;
  /// Per-rung candidate-space bounds (EstimateBoundedSearch), aligned
  /// with ladder_ — the SplitLadder costs and the ladder ordering key.
  std::vector<std::uint64_t> costs_;
};

}  // namespace ccfp

#endif  // CCFP_SEARCH_PORTFOLIO_H_
