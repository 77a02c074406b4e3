#ifndef CCFP_SEARCH_BOUNDED_H_
#define CCFP_SEARCH_BOUNDED_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "core/database.h"
#include "core/dependency.h"
#include "util/status.h"

namespace ccfp {

/// Caller-owned compile cache for the id-space bounded searcher: the
/// packed per-code projection-key tables, keyed by (relation, domain,
/// column sequence). One search compiles a table the first time any
/// dependency projects that relation onto those columns; every later
/// dependency — and every later *search over the same scheme* that passes
/// the same workspace via BoundedSearchOptions::workspace — reuses it.
/// The k-ary closure fixpoint and the special-case probes fire hundreds
/// of searches over one scheme, so the tables dominate setup cost there.
/// Per-search counter state is never cached; only the immutable tables.
///
/// Thread-safe: KeyTable serializes concurrent callers behind a mutex
/// (tables are compiled during searcher *setup*, not in enumeration hot
/// loops, so one lock per table lookup is cheap), and a handed-out table
/// reference stays valid and immutable for the workspace's lifetime
/// (node-based map) — so many sessions of a solver service can share one
/// per-scheme workspace.
class BoundedSearchWorkspace {
 public:
  struct Stats {
    std::uint64_t tables_built = 0;
    std::uint64_t tables_reused = 0;
  };

  /// The key table for projecting relation `rel`'s code space onto `cols`
  /// under `domain`; built on first use. `space_size` and `pow` must be
  /// the ones the searcher derived for (rel, domain) — i.e. always pass
  /// the same scheme with the same workspace. The reference stays valid
  /// for the workspace's lifetime.
  const std::vector<std::uint32_t>& KeyTable(
      RelId rel, std::size_t domain, const std::vector<AttrId>& cols,
      std::uint64_t space_size, const std::vector<std::uint64_t>& pow);

  /// Snapshot of the counters (by value: safe against concurrent builds).
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::tuple<RelId, std::size_t, std::vector<AttrId>>,
           std::vector<std::uint32_t>>
      tables_;
  Stats stats_;
};

/// Exhaustive bounded-model search: enumerate every database over the
/// scheme whose relations each have at most `max_tuples_per_relation`
/// tuples drawn from a fixed integer domain {0..domain_size-1}, and look
/// for a counterexample to premises |= conclusion.
///
/// This is a *refutation-complete-up-to-the-bound* oracle: a returned
/// database is a genuine counterexample (so the implication certainly
/// fails, finitely and unrestrictedly); exhausting the space only refutes
/// counterexamples within the bound. The paper's Figures 4.1-7.5 are all
/// counterexample databases of exactly this kind (hand-built); this module
/// mechanizes finding small ones.
///
/// ## Id-space enumeration strategy
///
/// Candidate databases are never materialized as heap `Value` tuples.
/// A candidate tuple over a relation of arity m is just an integer *code*
/// in [0, domain^m) (digit i of the code, base `domain_size`, is column i),
/// and a candidate relation is a subset of codes, enumerated by a DFS that
/// includes/excludes one code at a time. Before the search starts, every
/// dependency precomputes, per code, the packed integer keys of the
/// projections it cares about (FD: lhs and lhs ∪ rhs keys; IND: the two
/// side keys; EMVD: X, XY, XZ and XYZ keys). During the DFS each
/// dependency maintains *incremental* counters — e.g. an FD keeps, per lhs
/// key, the number of distinct rhs keys present, and a global count of lhs
/// keys with >= 2 of them — so including or excluding a tuple is O(deps)
/// array updates and "does this candidate satisfy d?" is a counter == 0
/// test. No per-candidate index is ever rebuilt.
///
/// The DFS visits relations in scheme order and prunes soundly:
///   * a premise FD/RD violation is monotone under tuple insertion, so a
///     subtree is abandoned the moment one fires inside its relation;
///   * when the last relation a premise mentions is finalized, the premise
///     is final — if violated, no completion is a counterexample;
///   * when the last relation the conclusion mentions is finalized and the
///     conclusion is satisfied, no completion can violate it.
/// Pruning only removes subtrees that provably contain no counterexample,
/// so the search agrees with a per-candidate model-checking enumeration on
/// counterexample existence (tests/bounded_cross_oracle_test.cc checks it
/// against the test-only materializing reference, tests/reference/bounded.h).
///
/// ## What a search allocates
///
/// Every counter is keyed by a column *set* (an FD's lhs ∪ rhs, an
/// EMVD's X ∪ Y ∪ Z), so no key space exceeds its relation's tuple space
/// domain^arity. EstimateBoundedSearch prices a shape by exactly those
/// tables — one per-code key table per projection plus each counter's key
/// space — and a shape that does not fit is declined, never run: the
/// search returns no counterexample with `exhausted == false`.

struct BoundedSearchOptions {
  std::size_t max_tuples_per_relation = 2;
  std::size_t domain_size = 2;
  /// Overall cap on candidate evaluations, guarding combinatorial blow-up.
  /// Counts *partial* candidates (each relation-subset completion), since
  /// pruning means most complete candidates are never reached.
  std::uint64_t max_candidates = 1u << 24;
  /// Ceiling on the logical bytes a search may allocate up front (key
  /// tables and counter arrays — the search's only growing allocations).
  /// Over the ceiling the search declines to run: it returns
  /// `exhausted == false` with no counterexample, which the entry points
  /// surface as ResourceExhausted — an unknown, never a wrong answer.
  std::uint64_t max_bytes = UINT64_MAX;
  /// Optional caller-owned compile cache shared across searches over the
  /// same scheme (see BoundedSearchWorkspace). Null: each search compiles
  /// its own tables. Not owned; must outlive the search.
  BoundedSearchWorkspace* workspace = nullptr;
};

/// Static pre-run estimate of what one search shape would cost, computed
/// from the scheme, the dependency set, and the shape/byte knobs alone —
/// no tables are compiled and no candidates enumerated. The refutation
/// portfolio (search/portfolio.h) uses this to order its shape ladder and
/// to *skip* rungs that could never run (counted, never silently), and
/// FindCounterexample declines from the same estimate, so "the estimate
/// says infeasible" and "the search would not run" are one predicate. All
/// arithmetic saturates at UINT64_MAX: a saturated estimate certainly
/// busts any real cap.
struct BoundedSearchEstimate {
  /// The search would run this shape: every tuple space and key space
  /// fits kMaxTupleSpace, and the priced tables fit kMaxTableEntries and
  /// `options.max_bytes`.
  bool id_space_feasible = false;
  /// Key-table + counter entries the search would allocate: an upper
  /// bound on its up-front allocation.
  std::uint64_t table_entries = 0;
  /// ... in bytes (each entry is one uint32).
  std::uint64_t table_bytes = 0;
  /// Upper bound on the candidates a full scan can test: the number of
  /// subset-DFS boundary visits with no pruning (pruning only ever tests
  /// fewer). Doubles as the shape's ladder-ordering cost.
  std::uint64_t candidate_bound = 0;
};

/// Estimates the cost of searching one shape (see BoundedSearchEstimate).
/// Only `options.max_tuples_per_relation`, `domain_size`, and `max_bytes`
/// are consulted.
BoundedSearchEstimate EstimateBoundedSearch(
    const DatabaseScheme& scheme, const std::vector<Dependency>& premises,
    const Dependency& conclusion, const BoundedSearchOptions& options);

struct BoundedSearchResult {
  /// A database satisfying every premise and violating the conclusion, if
  /// one exists within the bound.
  std::optional<Database> counterexample;
  /// Partial candidates visited (see BoundedSearchOptions).
  std::uint64_t candidates_tested = 0;
  /// True if the whole bounded space was scanned (no counterexample below
  /// the bound); false if max_candidates stopped the search early.
  bool exhausted = true;
  /// The engine, as the solver's stage reports name it:
  /// "bounded-search (id-space)".
  const char* engine = "";
};

/// Searches for a counterexample to premises |= conclusion.
/// By symmetry of the semantics under renaming of values, candidate
/// relations are enumerated as subsets of the domain^arity tuple space.
/// Declines (no counterexample, `exhausted == false`) when
/// EstimateBoundedSearch says the shape does not fit.
Result<BoundedSearchResult> FindCounterexample(
    SchemePtr scheme, const std::vector<Dependency>& premises,
    const Dependency& conclusion, const BoundedSearchOptions& options = {});

/// Convenience: true iff a counterexample exists within the bound. Like
/// every other entry point, budget exhaustion without a verdict (the scan
/// stopped early and found nothing) is a ResourceExhausted *status*, never
/// an abort — raise max_candidates and retry.
Result<bool> HasBoundedCounterexample(SchemePtr scheme,
                                      const std::vector<Dependency>& premises,
                                      const Dependency& conclusion,
                                      const BoundedSearchOptions& options = {});

}  // namespace ccfp

#endif  // CCFP_SEARCH_BOUNDED_H_
