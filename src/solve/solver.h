#ifndef CCFP_SOLVE_SOLVER_H_
#define CCFP_SOLVE_SOLVER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chase/workspace_chase.h"
#include "core/database.h"
#include "core/dependency.h"
#include "core/schema.h"
#include "core/verdict.h"
#include "ind/implication.h"
#include "interact/derivation.h"
#include "search/bounded.h"
#include "search/portfolio.h"
#include "util/budget.h"
#include "util/status.h"
#include "verify/witness_cache.h"

namespace ccfp {

/// The implication problem for FDs and INDs splinters by fragment — the
/// paper's core story. Each fragment has its own decision procedure with
/// its own complexity:
enum class ImplicationFragment : std::uint8_t {
  /// FD sigma, FD target: attribute closure (fd/closure.h), linear time,
  /// always exact (Section 3's contrast case).
  kPureFd = 0,
  /// IND sigma, IND target: the Corollary 3.2 expression graph
  /// (ind/implication.h), PSPACE-complete in general with polynomial
  /// special cases (unary -> digraph reachability, typed -> per-name-set
  /// reachability; ind/special.h).
  kPureInd = 1,
  /// Unary FDs + unary INDs, unary target: exact engines both ways —
  /// the KCV counting closure for |=fin, non-interaction for |=
  /// (interact/unary_finite.h; Theorem 4.4 lives exactly here).
  kUnary = 2,
  /// Mixed FDs + INDs (+ RDs): undecidable in general (Mitchell;
  /// Chandra-Vardi), no complete k-ary rule system (Theorem 7.1). Solved
  /// by a staged pipeline: sound derivation rules, then a budgeted chase
  /// proof, then bounded counterexample search — any stage may be
  /// decisive, or all may exhaust their budget (kUnknown). When the
  /// chase may not terminate (chase/termination.h), the search's cheap
  /// rungs run before it.
  kMixed = 3,
  /// EMVD/MVD sentences anywhere in the query: no exact engine; only
  /// bounded refutation search applies.
  kUnsupported = 4,
};

const char* ImplicationFragmentToString(ImplicationFragment fragment);

/// Classifies the (sigma, target) query into the fragment the solver will
/// route it to. Trivial members of sigma are ignored. Exposed so tests and
/// benches can assert the routing.
ImplicationFragment ClassifyImplicationFragment(
    const DatabaseScheme& scheme, const std::vector<Dependency>& sigma,
    const Dependency& target);

/// Which implication relation to decide. They coincide for pure FDs, pure
/// INDs (Theorem 3.1), and whenever |= answers kImplied (|= implies
/// |=fin); they differ on the unary fragment (Theorem 4.4).
enum class ImplicationSemantics : std::uint8_t {
  kUnrestricted = 0,  ///< |= over arbitrary (possibly infinite) databases
  kFinite = 1,        ///< |=fin over finite databases
};

const char* ImplicationSemanticsToString(ImplicationSemantics semantics);

struct SolveOptions {
  ImplicationSemantics semantics = ImplicationSemantics::kUnrestricted;
  /// Attach proof evidence (IND1/2/3 proof objects, derivation traces).
  bool want_proof = true;
  /// Attach (and verify) concrete counterexample databases.
  bool want_counterexample = true;
  /// Base shape of the refutation search space (these describe which
  /// databases are enumerated, not a resource budget — Budget::steps caps
  /// the scan). The base shape is rung 0 of the search ladder below: it is
  /// always fully funded first, so shrinking the ladder knobs to 0 recovers
  /// the classic fixed-shape search exactly.
  std::size_t search_max_tuples_per_relation = 2;
  std::size_t search_domain_size = 2;
  /// Refutation-ladder growth (search/portfolio.h): every refutation sweep
  /// runs a cost-ordered portfolio of shapes growing each axis up to
  /// base + growth, so counterexamples needing a third tuple or a third
  /// value — invisible to the fixed base shape — are found whenever the
  /// candidate budget stretches past rung 0. `search_max_rungs` truncates
  /// the cost-ordered ladder (cheapest shapes kept; 1 = fixed shape).
  std::size_t search_tuple_growth = 2;
  std::size_t search_domain_growth = 2;
  std::size_t search_max_rungs = 6;
  /// Denominator of the budget slice the unary route's best-effort
  /// evidence search gets (the decision there is already exact; a garnish
  /// witness hunt must not eat the query budget). 1 = the whole budget.
  unsigned evidence_garnish_split = 8;
  /// Number of equal Budget::Split shares the mixed pipeline hands its
  /// stages (derivation, chase, search each draw one share, so the
  /// pipeline never overspends the query budget ~3x). Raising it starves
  /// every stage equally; 1 lets each stage see the full budget.
  unsigned mixed_stage_split = 3;
  /// Replay verified counterexample databases from earlier Solve calls
  /// against later targets over the same sigma *before any engine runs*
  /// (verify/witness_cache.h). Only the inexact routes (unary evidence,
  /// mixed, unsupported) consult the cache — the linear exact engines
  /// produce richer evidence than a replay would. Refutations from every
  /// route feed it. Off => counterexamples are still verified through
  /// one-shot watchers, just not retained.
  bool use_witness_cache = true;

  /// Compiled search key tables shared across solvers over the *same
  /// scheme* (thread-safe, non-owned; service/shared_core.h). Null (the
  /// default) means the solver keeps its own table cache; when set, that
  /// cache is bypassed — the Nth session's searches compile nothing.
  BoundedSearchWorkspace* shared_search_tables = nullptr;
};

/// The three-valued answer of one Solve call, with checkable evidence:
///   * kImplied    — a proof artifact: the FD closure, an IND1/2/3 proof
///                   (already Check()ed by the rule system), a sound-rule
///                   derivation trace, or chase counters (the universal-
///                   model argument);
///   * kNotImplied — a concrete counterexample database satisfying sigma
///                   and violating the target, verified by Satisfies on an
///                   interned substrate before being attached (exact
///                   engines may answer kNotImplied with no database when
///                   none needs to exist — see `reason`);
///   * kUnknown    — never a shrug: `reason` plus one StageReport per
///                   stage tried, each with its own budget consumption.
struct Verdict {
  ImplicationVerdict outcome = ImplicationVerdict::kUnknown;
  ImplicationFragment fragment = ImplicationFragment::kMixed;
  ImplicationSemantics semantics = ImplicationSemantics::kUnrestricted;
  /// The engine that produced the decisive answer (empty for kUnknown).
  std::string engine;
  /// Structured explanation: why kUnknown, or evidence caveats.
  std::string reason;

  /// --- kImplied evidence (whichever the deciding engine produces) -----
  /// Pure-FD route: the attribute closure of the target's lhs (sorted);
  /// the target holds iff its rhs is contained in it.
  std::vector<AttrId> fd_closure;
  /// Pure-IND route: the Corollary 3.2 witnessing expression chain and
  /// the IND1/2/3 proof object (proof.Check() has passed).
  std::vector<IndExpression> ind_chain;
  std::optional<IndProof> ind_proof;
  /// Mixed route, derivation stage: the interaction-rule applications.
  std::vector<MixedDerivation::Step> derivation_trace;
  /// Mixed route, chase stage: the chase counters of the universal-model
  /// proof (also populated when the chase refutes).
  std::optional<WorkspaceChaseStats> chase_stats;

  /// --- kNotImplied evidence -------------------------------------------
  /// A finite database satisfying every (non-trivial) member of sigma and
  /// violating the target.
  std::optional<Database> counterexample;
  /// True iff the attached counterexample re-checked against sigma and
  /// the target on an interned substrate. Always true when a
  /// counterexample is attached (failed verification drops the database
  /// and notes it in `reason`).
  bool counterexample_verified = false;

  /// --- bookkeeping ----------------------------------------------------
  std::vector<StageReport> stages;
  BudgetUse used;  ///< total across stages

  bool implied() const { return outcome == ImplicationVerdict::kImplied; }
  bool not_implied() const {
    return outcome == ImplicationVerdict::kNotImplied;
  }
  bool unknown() const { return outcome == ImplicationVerdict::kUnknown; }

  /// Multi-line human-readable rendering (outcome, route, stages).
  std::string ToString(const DatabaseScheme& scheme) const;
};

/// The one front door for implication queries over FDs, INDs, and RDs:
///
///   ImplicationSolver solver(scheme, sigma);
///   Verdict v = solver.Solve(target, Budget()).value();
///
/// The solver classifies the query fragment and routes it to the exact
/// engine when one exists (pure FD / pure IND / unary / typed); mixed
/// queries run the staged pipeline (sound derivation rules ->
/// workspace-chase proof -> bounded counterexample search, with the
/// search's cheap rungs first when the IND position graph is not weakly
/// acyclic; docs/solver.md), every stage drawing on one Budget via
/// Split(). The chase stage is ChaseImplies (chase/chase.h), and every
/// refuting database — a chased fixpoint or a search witness — decides
/// only after the watchers verify it. State kept across Solve calls:
///   * a BoundedSearchWorkspace, so repeated searches over the scheme
///     reuse their compiled key tables;
///   * the solver's own witness cache (SolveOptions::use_witness_cache)
///     over the non-trivial members of sigma; witness_cache_stats() reads
///     its counters;
///   * a memo of chase runs that stopped at a counter ceiling, keyed by
///     the target's canonical seed and the chase share, so a repeated
///     divergent seed is chased once. A replay reports the stored run's
///     counters and note, so no Verdict can tell it from a fresh run;
///     only chase_memo_stats() sees the memo.
///
/// Statuses are reserved for invalid inputs; budget exhaustion is the
/// kUnknown verdict (with per-stage reports), never an error and never an
/// abort.
class ImplicationSolver {
 public:
  /// Validates sigma against the scheme; invalid members are an
  /// InvalidArgument on the first Solve (the constructor never aborts).
  ImplicationSolver(SchemePtr scheme, std::vector<Dependency> sigma,
                    SolveOptions options = {});
  ~ImplicationSolver();

  const DatabaseScheme& scheme() const { return *scheme_; }
  const std::vector<Dependency>& sigma() const { return sigma_; }
  const SolveOptions& options() const { return options_; }

  /// Chase-stage traffic: `chase_runs` counts ChaseImplies calls, and
  /// `chase_replays` the chase stages answered from the memo instead.
  struct ChaseMemoStats {
    std::uint64_t chase_runs = 0;
    std::uint64_t chase_replays = 0;
  };
  ChaseMemoStats chase_memo_stats() const;

  /// The counters of this solver's own witness cache (zero when sigma is
  /// invalid: no cache is built then).
  WitnessCache::Stats witness_cache_stats() const;

  /// Decides sigma |= target (or |=fin, per options) within `budget`.
  /// Error statuses only for invalid inputs.
  Result<Verdict> Solve(const Dependency& target,
                        const Budget& budget = Budget());

  /// The fragment Solve would route `target` to.
  ImplicationFragment Classify(const Dependency& target) const;

 private:
  Status ValidateInputs(const Dependency& target) const;
  void SolvePureFd(const Dependency& target, const Budget& budget,
                   Verdict& v);
  void SolvePureInd(const Dependency& target, const Budget& budget,
                    Verdict& v);
  void SolveUnary(const Dependency& target, const Budget& budget,
                  Verdict& v);
  void SolveMixed(const Dependency& target, const Budget& budget,
                  Verdict& v);
  void SolveUnsupported(const Dependency& target, const Budget& budget,
                        Verdict& v);
  /// Stage 2 of the mixed route: ChaseImplies under `slice` (the
  /// universal-model argument). True iff decisive — a refuting fixpoint
  /// decides only once AttachCounterexample verifies it; otherwise pushes
  /// its reason onto `unknown_notes`. The stage's budget use is the
  /// chase's own counters, on the exhausted path too. A run that stopped
  /// at a counter ceiling of a deadline-free share is memoized by seed and
  /// share, and a later stage with the same key replays it.
  bool ChaseStage(const Dependency& target, const Budget& slice,
                  std::vector<std::string>& unknown_notes, Verdict& v);
  /// The refutation portfolio (search/portfolio.h) over this solver's
  /// search options and compiled-table cache.
  RefutationPortfolio MakePortfolio(const Dependency& target);
  /// The refutation stage shared by the unsupported route and the unary
  /// best-effort evidence pass: the whole ladder under `budget`. Returns
  /// the not-decisive summary for the caller's unknown notes — naming the
  /// largest fully scanned shape and the skipped-rung counts — or "" when
  /// decisive.
  std::string SearchStage(const Dependency& target, const Budget& budget,
                          Verdict& v);
  /// Sweeps rungs [first, last) of `portfolio` under `budget` (see
  /// RefutationPortfolio::RunRungs): one "search" stage report per rung
  /// reached, the winning counterexample verified through watchers, the
  /// sweep's report appended to `swept`. Decisive iff some rung finds
  /// (and the watchers verify) a counterexample. Returns the portfolio's
  /// error status (invalid inputs) after reporting it as a stage.
  Status SearchRungs(RefutationPortfolio& portfolio, const Dependency& target,
                     const Budget& budget, std::size_t first,
                     std::size_t last, PortfolioResult& swept, Verdict& v);
  /// Tries to answer kNotImplied from the witness cache (a database from
  /// an earlier Solve that satisfies sigma and violates `target`). On a
  /// hit fills the verdict (stage "witness-cache") and returns true.
  /// With `evidence_only`, the verdict outcome/engine are already decided
  /// (the unary route's exact refutation): a hit only attaches the
  /// replayed database as the counterexample evidence.
  bool ProbeWitnessCache(const Dependency& target, Verdict& v,
                         bool evidence_only = false);
  /// Verifies `db` against sigma and the target through incremental
  /// watchers (and offers it to the witness cache for later Solves).
  /// Returns true iff genuine; attaches the database to `v` only when
  /// `want_counterexample` is also set (verification alone decides the
  /// verdict — evidence attachment is optional).
  bool AttachCounterexample(Database db, const Dependency& target,
                            Verdict& v, StageReport& report);

  SchemePtr scheme_;
  std::vector<Dependency> sigma_;
  SolveOptions options_;

  /// Derived views of sigma (trivial members filtered out).
  std::vector<Dependency> nontrivial_;
  std::vector<Fd> fds_;
  std::vector<Ind> inds_;
  std::vector<Rd> rds_;
  /// Sigma-shape facts for fragment routing, computed once:
  bool all_fd_ = true;             ///< only FDs among the non-trivial
  bool all_ind_ = true;            ///< only INDs among the non-trivial
  bool all_unary_ = true;          ///< every FD/IND unary (1 -> 1 / width 1)
  bool has_other_ = false;         ///< non-trivial EMVD/MVD present
  bool sigma_valid_ = true;
  std::string sigma_error_;

  /// Compiled-table cache shared by every refutation search this solver
  /// runs (the scheme is fixed, so the tables are reusable by contract).
  /// Bypassed when options_.shared_search_tables is set.
  BoundedSearchWorkspace search_ws_;
  /// Verified counterexamples from earlier Solves, replayed against later
  /// targets over the same sigma (capacity 0 when use_witness_cache is
  /// off — it then only serves as the watcher-based evidence checker).
  /// Null only when sigma is invalid.
  std::unique_ptr<WitnessCache> witness_cache_;

  /// Counter-capped chase runs by seed and share (solver.cc).
  struct ChaseMemo;
  std::unique_ptr<ChaseMemo> chase_memo_;
};

/// One-shot façade over a temporary solver:
/// Solve(scheme, sigma, target, budget).
Result<Verdict> SolveImplication(SchemePtr scheme,
                                 std::vector<Dependency> sigma,
                                 const Dependency& target,
                                 const Budget& budget = Budget(),
                                 SolveOptions options = {});

}  // namespace ccfp

#endif  // CCFP_SOLVE_SOLVER_H_
