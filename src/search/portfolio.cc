#include "search/portfolio.h"

#include <algorithm>
#include <utility>

#include "util/strings.h"

namespace ccfp {

namespace {

/// Ladder ordering: cheapest candidate space first; ties broken by the
/// smaller shape (fewer tuples, then fewer values) so the base shape —
/// minimal on both axes — always sorts first and the order is total.
struct LadderEntry {
  SearchShape shape;
  std::uint64_t cost = 0;

  bool operator<(const LadderEntry& other) const {
    if (cost != other.cost) return cost < other.cost;
    if (shape.max_tuples_per_relation != other.shape.max_tuples_per_relation) {
      return shape.max_tuples_per_relation < other.shape.max_tuples_per_relation;
    }
    return shape.domain_size < other.shape.domain_size;
  }
};

BoundedSearchOptions ShapeOptions(const SearchShape& shape,
                                  std::uint64_t max_bytes) {
  BoundedSearchOptions o;
  o.max_tuples_per_relation = shape.max_tuples_per_relation;
  o.domain_size = shape.domain_size;
  o.max_bytes = max_bytes;
  return o;
}

}  // namespace

std::string SearchShape::ToString() const {
  return StrCat(max_tuples_per_relation, " tuples/relation over a ",
                domain_size, "-value domain");
}

const char* RungStatusToString(RungStatus status) {
  switch (status) {
    case RungStatus::kFullScan:
      return "full-scan";
    case RungStatus::kBudget:
      return "budget";
    case RungStatus::kFound:
      return "found";
    case RungStatus::kSkipped:
      return "skipped";
  }
  return "unknown";
}

void PortfolioResult::Append(PortfolioResult later) {
  if (later.winner != kNoRung) {
    winner = rungs.size() + later.winner;
    counterexample = std::move(later.counterexample);
  }
  for (RungReport& rung : later.rungs) rungs.push_back(std::move(rung));
  candidates_tested += later.candidates_tested;
  rungs_scanned += later.rungs_scanned;
  rungs_skipped += later.rungs_skipped;
  if (later.largest_scanned.has_value()) {
    largest_scanned = later.largest_scanned;
  }
}

RefutationPortfolio::RefutationPortfolio(SchemePtr scheme,
                                         std::vector<Dependency> premises,
                                         Dependency conclusion,
                                         PortfolioOptions options)
    : scheme_(std::move(scheme)),
      premises_(std::move(premises)),
      conclusion_(std::move(conclusion)),
      options_(options) {
  // Build the ladder eagerly: the candidate-space bound of a shape depends
  // only on the scheme and the dependency set, never on the run budget, so
  // the cost ordering is fixed at construction and every Run sees it.
  std::vector<LadderEntry> entries;
  entries.reserve((options_.tuple_growth + 1) * (options_.domain_growth + 1));
  for (std::size_t dt = 0; dt <= options_.tuple_growth; ++dt) {
    for (std::size_t dd = 0; dd <= options_.domain_growth; ++dd) {
      SearchShape shape;
      shape.max_tuples_per_relation = options_.base.max_tuples_per_relation + dt;
      shape.domain_size = options_.base.domain_size + dd;
      LadderEntry entry;
      entry.shape = shape;
      entry.cost = EstimateBoundedSearch(*scheme_, premises_, conclusion_,
                                         ShapeOptions(shape, UINT64_MAX))
                       .candidate_bound;
      entries.push_back(entry);
    }
  }
  std::sort(entries.begin(), entries.end());
  const std::size_t rungs =
      std::min(entries.size(), std::max<std::size_t>(options_.max_rungs, 1));
  ladder_.reserve(rungs);
  costs_.reserve(rungs);
  for (std::size_t i = 0; i < rungs; ++i) {
    ladder_.push_back(entries[i].shape);
    costs_.push_back(entries[i].cost);
  }
}

std::size_t RefutationPortfolio::RungsWithin(std::uint64_t max_cost) const {
  // costs_ is ascending (ladder order is cost order), so the rungs within
  // the bound are a prefix of the ladder.
  std::size_t k = static_cast<std::size_t>(
      std::upper_bound(costs_.begin(), costs_.end(), max_cost) -
      costs_.begin());
  return std::max<std::size_t>(k, 1);
}

Result<PortfolioResult> RefutationPortfolio::Run(const Budget& budget) {
  return RunRungs(budget, 0, ladder_.size());
}

Result<PortfolioResult> RefutationPortfolio::RunRungs(const Budget& budget,
                                                      std::size_t first,
                                                      std::size_t last) {
  for (const Dependency& p : premises_) {
    CCFP_RETURN_NOT_OK(Validate(*scheme_, p));
  }
  CCFP_RETURN_NOT_OK(Validate(*scheme_, conclusion_));

  const std::size_t n = ladder_.size();
  last = std::min(last, n);
  first = std::min(first, last);
  PortfolioResult out;
  out.rungs.resize(last - first);
  for (std::size_t i = first; i < last; ++i) {
    out.rungs[i - first].shape = ladder_[i];
  }

  // Feasibility against *this* run's byte ceiling, over the whole ladder:
  // the SplitLadder shares below depend on every rung's funded cost, so a
  // partial sweep funds its rungs exactly as the full sweep would.
  std::vector<std::uint64_t> funded_costs = costs_;
  for (std::size_t i = 0; i < n; ++i) {
    BoundedSearchEstimate estimate = EstimateBoundedSearch(
        *scheme_, premises_, conclusion_, ShapeOptions(ladder_[i], budget.bytes));
    if (!estimate.id_space_feasible) {
      funded_costs[i] = 0;  // infeasible rungs ask nothing of the ladder budget
      if (i < first || i >= last) continue;
      out.rungs[i - first].note =
          StrCat("skipped: compiled tables for ", ladder_[i].ToString(),
                 " exceed the id-space caps or the byte ceiling (",
                 estimate.table_bytes, " table bytes)");
    }
  }

  const std::vector<Budget> shares = budget.SplitLadder(funded_costs);
  BoundedSearchWorkspace local_workspace;
  BoundedSearchWorkspace* workspace =
      options_.workspace != nullptr ? options_.workspace : &local_workspace;

  // The sweep: ladder (cost) order, one rung at a time, stopping at the
  // first find — rungs above the winner are never reached.
  for (std::size_t i = first; i < last; ++i) {
    RungReport& rung = out.rungs[i - first];
    rung.share = shares[i].steps;
    if (funded_costs[i] == 0 || shares[i].steps == 0) {
      // SplitLadder funds rungs in ladder order, so a funded rung's share
      // is zero only when the budget had no steps or smaller shapes spent
      // them all.
      if (funded_costs[i] != 0) {
        rung.note =
            StrCat(budget.steps == 0
                       ? "skipped: the ladder had no candidate budget ("
                       : "skipped: candidate budget drained by smaller "
                         "shapes (",
                   ladder_[i].ToString(), " needs up to ", costs_[i],
                   " candidates)");
      }  // else the note is already set: statically infeasible
      ++out.rungs_skipped;
      continue;
    }
    BoundedSearchOptions o = ShapeOptions(ladder_[i], budget.bytes);
    o.max_candidates = shares[i].steps;
    o.workspace = workspace;
    CCFP_ASSIGN_OR_RETURN(
        BoundedSearchResult result,
        FindCounterexample(scheme_, premises_, conclusion_, o));
    rung.candidates_tested = result.candidates_tested;
    rung.engine = result.engine;
    out.candidates_tested += result.candidates_tested;
    if (result.counterexample.has_value()) {
      rung.status = RungStatus::kFound;
      rung.note = StrCat("counterexample found at ", ladder_[i].ToString());
      out.winner = i - first;
      out.counterexample = std::move(result.counterexample);
      out.rungs.resize(i - first + 1);
      break;
    }
    if (result.exhausted) {
      rung.status = RungStatus::kFullScan;
      rung.note = StrCat("full scan: no counterexample with <= ",
                         ladder_[i].ToString());
      ++out.rungs_scanned;
      out.largest_scanned = ladder_[i];  // ladder order is cost order
    } else {
      rung.status = RungStatus::kBudget;
      rung.note = StrCat("stopped early: candidate share of ", rung.share,
                         " drained at ", ladder_[i].ToString());
    }
  }
  return out;
}

}  // namespace ccfp
