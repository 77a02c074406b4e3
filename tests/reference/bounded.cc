#include "reference/bounded.h"

#include <functional>

#include "core/satisfies.h"

namespace ccfp::reference {

namespace {

// All tuples over `arity` positions with entries in {0..domain-1}, in
// code order (digit i of the code, base `domain`, is column i).
std::vector<Tuple> TupleSpace(std::size_t arity, std::size_t domain) {
  std::vector<Tuple> space;
  std::uint64_t total = 1;
  for (std::size_t i = 0; i < arity; ++i) total *= domain;
  space.reserve(total);
  for (std::uint64_t code = 0; code < total; ++code) {
    Tuple t(arity);
    std::uint64_t rest = code;
    for (std::size_t i = 0; i < arity; ++i) {
      t[i] = Value::Int(static_cast<std::int64_t>(rest % domain));
      rest /= domain;
    }
    space.push_back(std::move(t));
  }
  return space;
}

// All subsets of {0..n-1} of size <= k, as index lists, in pre-order.
std::vector<std::vector<std::size_t>> Combinations(std::size_t n,
                                                   std::size_t k) {
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::size_t> current;
  std::function<void(std::size_t)> rec = [&](std::size_t start) {
    out.push_back(current);
    if (current.size() >= k) return;
    for (std::size_t i = start; i < n; ++i) {
      current.push_back(i);
      rec(i + 1);
      current.pop_back();
    }
  };
  rec(0);
  return out;
}

}  // namespace

Result<BoundedSearchResult> FindCounterexampleMaterialized(
    SchemePtr scheme, const std::vector<Dependency>& premises,
    const Dependency& conclusion, const BoundedSearchOptions& options) {
  for (const Dependency& p : premises) {
    CCFP_RETURN_NOT_OK(Validate(*scheme, p));
  }
  CCFP_RETURN_NOT_OK(Validate(*scheme, conclusion));
  BoundedSearchResult result;
  result.engine = "bounded-search (materializing)";
  SatisfiesOptions check;
  check.engine = SatisfiesEngine::kLegacy;

  // Per-relation candidate tuple sets.
  std::vector<std::vector<Tuple>> spaces;
  std::vector<std::vector<std::vector<std::size_t>>> choices;
  for (RelId rel = 0; rel < scheme->size(); ++rel) {
    spaces.push_back(TupleSpace(scheme->relation(rel).arity(),
                                options.domain_size));
    choices.push_back(Combinations(spaces.back().size(),
                                   options.max_tuples_per_relation));
  }

  // Depth-first product over per-relation choices.
  Database db(scheme);
  bool budget_hit = false;
  std::function<bool(RelId)> rec = [&](RelId rel) -> bool {
    if (rel == scheme->size()) {
      if (++result.candidates_tested > options.max_candidates) {
        budget_hit = true;
        return true;  // stop
      }
      if (Satisfies(db, conclusion, check)) return false;
      for (const Dependency& p : premises) {
        if (!Satisfies(db, p, check)) return false;
      }
      result.counterexample = db;  // copy: db is reused by the recursion
      return true;
    }
    for (const std::vector<std::size_t>& subset : choices[rel]) {
      Relation fresh(scheme->relation(rel).arity());
      for (std::size_t idx : subset) fresh.Insert(spaces[rel][idx]);
      db.relation(rel) = std::move(fresh);
      if (rec(rel + 1)) return true;
    }
    return false;
  };
  rec(0);
  result.exhausted = !budget_hit;
  return result;
}

}  // namespace ccfp::reference
