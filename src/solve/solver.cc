#include "solve/solver.h"

#include <algorithm>
#include <utility>

#include "chase/chase.h"
#include "chase/ind_chase.h"
#include "chase/termination.h"
#include "fd/closure.h"
#include "ind/special.h"
#include "interact/unary_finite.h"
#include "util/strings.h"

namespace ccfp {

const char* ImplicationFragmentToString(ImplicationFragment fragment) {
  switch (fragment) {
    case ImplicationFragment::kPureFd:
      return "pure-fd";
    case ImplicationFragment::kPureInd:
      return "pure-ind";
    case ImplicationFragment::kUnary:
      return "unary";
    case ImplicationFragment::kMixed:
      return "mixed";
    case ImplicationFragment::kUnsupported:
      return "unsupported";
  }
  return "?";
}

const char* ImplicationSemanticsToString(ImplicationSemantics semantics) {
  switch (semantics) {
    case ImplicationSemantics::kUnrestricted:
      return "unrestricted";
    case ImplicationSemantics::kFinite:
      return "finite";
  }
  return "?";
}

namespace {

/// The sigma-shape facts classification routes on; computed once by the
/// solver constructor and by the free ClassifyImplicationFragment.
struct SigmaFacts {
  bool all_fd = true;
  bool all_ind = true;
  bool all_unary = true;
  bool has_other = false;
};

SigmaFacts ComputeSigmaFacts(const DatabaseScheme& scheme,
                             const std::vector<Dependency>& sigma) {
  SigmaFacts f;
  for (const Dependency& dep : sigma) {
    if (IsTrivial(scheme, dep)) continue;
    switch (dep.kind()) {
      case DependencyKind::kFd:
        f.all_ind = false;
        // Empty-lhs (constant-column) FDs re-introduce FD/IND interaction
        // and fall out of the unary fragment here too: 0 != 1.
        if (dep.fd().lhs.size() != 1 || dep.fd().rhs.size() != 1) {
          f.all_unary = false;
        }
        break;
      case DependencyKind::kInd:
        f.all_fd = false;
        if (dep.ind().width() != 1) f.all_unary = false;
        break;
      case DependencyKind::kRd:
        f.all_fd = false;
        f.all_ind = false;
        f.all_unary = false;
        break;
      default:
        f.has_other = true;
        break;
    }
  }
  return f;
}

ImplicationFragment ClassifyWithFacts(const SigmaFacts& f,
                                      const Dependency& target) {
  if (f.has_other || target.is_emvd() || target.is_mvd()) {
    return ImplicationFragment::kUnsupported;
  }
  if (target.is_fd() && f.all_fd) return ImplicationFragment::kPureFd;
  if (target.is_ind() && f.all_ind) return ImplicationFragment::kPureInd;
  bool unary_target =
      (target.is_fd() && target.fd().lhs.size() == 1 &&
       target.fd().rhs.size() == 1) ||
      (target.is_ind() && target.ind().width() == 1);
  if (unary_target && f.all_unary) {
    return ImplicationFragment::kUnary;
  }
  return ImplicationFragment::kMixed;
}

/// The pure-FD counterexample: two tuples over the target's relation that
/// agree exactly on the closure of the target's lhs (the Armstrong-style
/// two-tuple argument — any sigma FD whose lhs is inside the closure has
/// its rhs inside it too, so it holds; the target's rhs escapes it).
/// `closure` must be sorted (AttributeClosure returns it sorted).
Database FdCounterexample(SchemePtr scheme, const Fd& target,
                          const std::vector<AttrId>& closure) {
  Database db(scheme);
  std::size_t arity = scheme->relation(target.rel).arity();
  Tuple t1(arity), t2(arity);
  for (AttrId a = 0; a < arity; ++a) {
    bool shared = std::binary_search(closure.begin(), closure.end(), a);
    t1[a] = Value::Int(static_cast<std::int64_t>(a));
    t2[a] = shared ? t1[a]
                   : Value::Int(static_cast<std::int64_t>(arity + a));
  }
  db.Insert(target.rel, std::move(t1));
  db.Insert(target.rel, std::move(t2));
  return db;
}

/// When the chase may not terminate, the mixed route sweeps the ladder
/// rungs priced within 1/kCheapRungDivisor of the search share before the
/// chase: a refutation that costs almost nothing must not wait behind a
/// chase share that cannot answer.
constexpr std::uint64_t kCheapRungDivisor = 64;

/// The relation holding the target's canonical chase seed.
RelId SeedRelation(const Dependency& target) {
  switch (target.kind()) {
    case DependencyKind::kInd:
      return target.ind().lhs_rel;
    case DependencyKind::kRd:
      return target.rd().rel;
    default:
      return target.fd().rel;
  }
}

/// The not-decisive summary of a refutation sweep for the caller's
/// unknown notes: the portfolio's error, or the largest fully scanned
/// shape (the strongest exhaustion fact the ladder established) and every
/// rung that could not run.
std::string SearchSummary(const Status& searched,
                          const PortfolioResult& swept) {
  if (!searched.ok()) return searched.ToString();
  std::string summary =
      swept.largest_scanned.has_value()
          ? StrCat("no counterexample with <= ",
                   swept.largest_scanned->ToString())
          : "candidate budget exhausted before any shape was fully scanned";
  if (swept.rungs_skipped > 0) {
    summary += StrCat(" (", swept.rungs_skipped, " of ", swept.rungs.size(),
                      " ladder rungs skipped)");
  }
  return summary;
}

/// Folds a finished stage into the verdict's totals.
void PushStage(Verdict& v, StageReport r) {
  v.used.Add(r.used);
  v.stages.push_back(std::move(r));
}

/// Deadline gate between stages: appends a skipped-stage report and
/// updates the reason when the budget's wall-clock deadline has passed.
bool DeadlineExpired(const Budget& budget, Verdict& v, const char* stage) {
  if (!budget.Expired()) return false;
  StageReport r{stage, "", ImplicationVerdict::kUnknown,
                "skipped: budget deadline passed", {}};
  PushStage(v, std::move(r));
  v.reason = "budget deadline passed before the stages were exhausted";
  return true;
}

}  // namespace

/// Chase runs that stopped at a counter ceiling, replayed for later chase
/// stages with the same key. Such a run depends only on sigma (fixed per
/// solver), the canonical seed and the share's counters: the target enters
/// only the fixpoint check, which an exhausted run never reaches. The key
/// is exactly what MakeCanonicalSeed reads — the seed relation, and for an
/// FD target its lhs as a set (IND and RD targets on one relation share
/// the one-tuple seed) — plus the share's steps, tuples and bytes. An
/// entry holds counters and a status, never a database.
struct ImplicationSolver::ChaseMemo {
  struct Key {
    RelId rel = 0;
    bool fd_seed = false;       ///< the two-tuple seed of an FD target
    std::vector<AttrId> lhs;    ///< the FD's lhs, sorted (no repeats)
    std::uint64_t steps = 0;
    std::uint64_t tuples = 0;
    std::uint64_t bytes = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct Entry {
    Key key;
    ChaseImplication run;
    std::uint64_t last_use = 0;
  };
  static constexpr std::size_t kCapacity = 64;

  /// The memo key of `target`'s chase under `share`, or none when the share
  /// has a deadline: a run that a wall-clock instant may stop is neither
  /// admitted nor answered from the memo.
  static std::optional<Key> KeyFor(const Dependency& target,
                                   const Budget& share) {
    if (share.deadline.has_value()) return std::nullopt;
    Key key{SeedRelation(target), target.is_fd(), {}, share.steps,
            share.tuples, share.bytes};
    if (key.fd_seed) {
      key.lhs = target.fd().lhs;
      std::sort(key.lhs.begin(), key.lhs.end());
    }
    return key;
  }

  /// The stored run for `key` (marked most recently used), or null.
  const ChaseImplication* Find(const Key& key) {
    for (Entry& e : entries) {
      if (e.key == key) {
        e.last_use = ++clock;
        return &e.run;
      }
    }
    return nullptr;
  }

  /// Stores a counter-capped run, evicting the least recently used entry
  /// when full.
  void Admit(Key key, const ChaseImplication& run) {
    Entry entry{std::move(key), run, ++clock};
    if (entries.size() < kCapacity) {
      entries.push_back(std::move(entry));
      return;
    }
    *std::min_element(entries.begin(), entries.end(),
                      [](const Entry& a, const Entry& b) {
                        return a.last_use < b.last_use;
                      }) = std::move(entry);
  }

  std::vector<Entry> entries;
  std::uint64_t clock = 0;
  ChaseMemoStats stats;
};

ImplicationFragment ClassifyImplicationFragment(
    const DatabaseScheme& scheme, const std::vector<Dependency>& sigma,
    const Dependency& target) {
  return ClassifyWithFacts(ComputeSigmaFacts(scheme, sigma), target);
}

std::string Verdict::ToString(const DatabaseScheme& scheme) const {
  std::string out =
      StrCat(ImplicationVerdictToString(outcome), "  [fragment: ",
             ImplicationFragmentToString(fragment), ", semantics: ",
             ImplicationSemanticsToString(semantics), "]");
  if (!engine.empty()) out += StrCat("\n  engine: ", engine);
  if (!reason.empty()) out += StrCat("\n  reason: ", reason);
  if (!ind_chain.empty()) {
    out += StrCat("\n  chain:  ",
                  JoinMapped(ind_chain, " -> ", [&](const IndExpression& e) {
                    return e.ToString(scheme);
                  }));
  }
  if (!derivation_trace.empty()) {
    out += StrCat("\n  trace:  ", derivation_trace.size(),
                  " interaction-rule applications");
  }
  if (counterexample.has_value()) {
    out += StrCat("\n  counterexample: ", counterexample->TotalTuples(),
                  " tuples", counterexample_verified ? " (verified)" : "");
  }
  for (const StageReport& r : stages) {
    out += StrCat("\n  stage: ", r.ToString());
  }
  return out;
}

ImplicationSolver::ImplicationSolver(SchemePtr scheme,
                                     std::vector<Dependency> sigma,
                                     SolveOptions options)
    : scheme_(std::move(scheme)),
      sigma_(std::move(sigma)),
      options_(options),
      chase_memo_(std::make_unique<ChaseMemo>()) {
  for (const Dependency& dep : sigma_) {
    Status st = Validate(*scheme_, dep);
    if (!st.ok()) {
      sigma_valid_ = false;
      sigma_error_ = st.ToString();
      return;
    }
  }
  SigmaFacts facts = ComputeSigmaFacts(*scheme_, sigma_);
  all_fd_ = facts.all_fd;
  all_ind_ = facts.all_ind;
  all_unary_ = facts.all_unary;
  has_other_ = facts.has_other;
  for (const Dependency& dep : sigma_) {
    if (IsTrivial(*scheme_, dep)) continue;
    nontrivial_.push_back(dep);
    if (dep.is_fd()) {
      fds_.push_back(dep.fd());
    } else if (dep.is_ind()) {
      inds_.push_back(dep.ind());
    } else if (dep.is_rd()) {
      rds_.push_back(dep.rd());
    }
  }
  witness_cache_ = std::make_unique<WitnessCache>(
      scheme_, nontrivial_, options_.use_witness_cache ? 8 : 0);
}

ImplicationSolver::~ImplicationSolver() = default;

ImplicationSolver::ChaseMemoStats ImplicationSolver::chase_memo_stats() const {
  return chase_memo_->stats;
}

WitnessCache::Stats ImplicationSolver::witness_cache_stats() const {
  return witness_cache_ != nullptr ? witness_cache_->stats()
                                   : WitnessCache::Stats();
}

ImplicationFragment ImplicationSolver::Classify(
    const Dependency& target) const {
  SigmaFacts facts;
  facts.all_fd = all_fd_;
  facts.all_ind = all_ind_;
  facts.all_unary = all_unary_;
  facts.has_other = has_other_;
  return ClassifyWithFacts(facts, target);
}

Status ImplicationSolver::ValidateInputs(const Dependency& target) const {
  if (!sigma_valid_) {
    return Status::InvalidArgument(StrCat("invalid sigma: ", sigma_error_));
  }
  return Validate(*scheme_, target);
}

Result<Verdict> ImplicationSolver::Solve(const Dependency& target,
                                         const Budget& budget) {
  CCFP_RETURN_NOT_OK(ValidateInputs(target));
  // The cache's pinned workspaces are live solver state, so they count
  // against the query's byte ceiling like everything else: shrink the
  // cache (coldest witness first) before running the stages under it.
  if (options_.use_witness_cache && budget.bytes != UINT64_MAX) {
    witness_cache_->EnforceByteCeiling(budget.bytes);
  }
  Verdict v;
  v.semantics = options_.semantics;
  v.fragment = Classify(target);

  if (IsTrivial(*scheme_, target)) {
    v.outcome = ImplicationVerdict::kImplied;
    v.engine = "trivial";
    PushStage(v, StageReport{"decide", "trivial",
                             ImplicationVerdict::kImplied,
                             "target holds in every database", {}});
    return v;
  }

  switch (v.fragment) {
    case ImplicationFragment::kPureFd:
      SolvePureFd(target, budget, v);
      break;
    case ImplicationFragment::kPureInd:
      SolvePureInd(target, budget, v);
      break;
    case ImplicationFragment::kUnary:
      // The decision engines are exact and cheap; the cache cannot beat
      // them, so it is not consulted for the *verdict* here.
      SolveUnary(target, budget, v);
      break;
    case ImplicationFragment::kMixed:
      if (ProbeWitnessCache(target, v)) break;
      SolveMixed(target, budget, v);
      break;
    case ImplicationFragment::kUnsupported:
      if (ProbeWitnessCache(target, v)) break;
      SolveUnsupported(target, budget, v);
      break;
  }
  if (v.outcome == ImplicationVerdict::kUnknown && v.reason.empty()) {
    v.reason = "every stage exhausted its budget without a verdict";
  }
  return v;
}

bool ImplicationSolver::ProbeWitnessCache(const Dependency& target,
                                          Verdict& v, bool evidence_only) {
  if (!options_.use_witness_cache || witness_cache_->size() == 0) {
    return false;
  }
  std::shared_ptr<const Database> hit = witness_cache_->Refute(target);
  if (hit == nullptr) return false;
  // The cached database satisfies sigma (verified on admission) and its
  // watcher just confirmed it violates the target — a complete
  // refutation replayed for free, before any engine runs.
  StageReport r{"witness-cache", "witness-cache (replayed refutation)",
                ImplicationVerdict::kNotImplied,
                evidence_only
                    ? "a counterexample from an earlier Solve over this "
                      "sigma replayed as the evidence database"
                    : "a counterexample from an earlier Solve over this "
                      "sigma violates the target",
                {}};
  if (!evidence_only) {
    // The replay *decides* (the exact routes never reach this probe).
    v.outcome = ImplicationVerdict::kNotImplied;
    v.engine = r.engine;
  }
  if (options_.want_counterexample) {
    v.counterexample = *hit;
    v.counterexample_verified = true;
  }
  PushStage(v, std::move(r));
  return true;
}

bool ImplicationSolver::AttachCounterexample(Database db,
                                            const Dependency& target,
                                            Verdict& v,
                                            StageReport& report) {
  // Evidence check through incremental watchers (verify/witness_cache.h):
  // the candidate is interned exactly once into a cache entry, sigma and
  // the target are watched, and — when the cache is enabled — the entry
  // is retained so later Solves over this sigma can replay it. The check
  // always runs — it is what makes a search-found candidate decisive;
  // want_counterexample only controls whether the database itself is
  // handed to the caller.
  bool genuine = witness_cache_->Admit(db, target).genuine;
  if (genuine) {
    if (!report.note.empty()) report.note += "; ";
    report.note += "counterexample verified through watchers";
    if (options_.want_counterexample) {
      v.counterexample = std::move(db);
      v.counterexample_verified = true;
    }
  } else {
    // Defensive: a non-genuine candidate indicates an engine bug; report
    // it loudly instead of attaching bad evidence.
    if (!report.note.empty()) report.note += "; ";
    report.note += "candidate counterexample FAILED verification (dropped)";
    if (!v.reason.empty()) v.reason += "; ";
    v.reason += "a candidate counterexample failed verification";
  }
  return genuine;
}

void ImplicationSolver::SolvePureFd(const Dependency& target,
                                    const Budget& budget, Verdict& v) {
  (void)budget;  // attribute closure is linear; no budget axis applies
  const Fd& fd = target.fd();
  StageReport r{"decide", "fd-closure (Beeri-Bernstein)",
                ImplicationVerdict::kUnknown, "", {}};
  std::vector<AttrId> closure =
      AttributeClosure(*scheme_, fd.rel, fds_, fd.lhs);
  v.fd_closure = closure;
  r.used.expressions = closure.size();
  bool implied = true;
  for (AttrId a : fd.rhs) {
    if (!std::binary_search(closure.begin(), closure.end(), a)) {
      implied = false;
      break;
    }
  }
  v.engine = r.engine;
  if (implied) {
    v.outcome = ImplicationVerdict::kImplied;
    r.verdict = ImplicationVerdict::kImplied;
    r.note = "target rhs inside the lhs closure";
  } else {
    v.outcome = ImplicationVerdict::kNotImplied;
    r.verdict = ImplicationVerdict::kNotImplied;
    if (options_.want_counterexample) {
      AttachCounterexample(FdCounterexample(scheme_, fd, closure), target,
                           v, r);
    }
  }
  PushStage(v, std::move(r));
}

void ImplicationSolver::SolvePureInd(const Dependency& target,
                                     const Budget& budget, Verdict& v) {
  const Ind& ind = target.ind();

  // Special-case engines (end of Section 3) when no proof is requested:
  // width-1 queries are digraph reachability, typed queries per-name-set
  // reachability — both polynomial and exact.
  bool all_unary_inds = ind.width() == 1 && all_unary_;
  bool all_typed = IsTypedInd(*scheme_, ind);
  if (all_typed) {
    for (const Ind& member : inds_) {
      if (!IsTypedInd(*scheme_, member)) {
        all_typed = false;
        break;
      }
    }
  }

  StageReport r{"decide", "", ImplicationVerdict::kUnknown, "", {}};
  ImplicationVerdict decided = ImplicationVerdict::kUnknown;
  if (!options_.want_proof && all_unary_inds) {
    UnaryIndGraph graph(scheme_, inds_);
    decided = graph.Implies(ind) ? ImplicationVerdict::kImplied
                                 : ImplicationVerdict::kNotImplied;
    r.engine = "unary-ind-graph (digraph reachability)";
  } else if (!options_.want_proof && all_typed) {
    Result<bool> typed = TypedIndImplies(*scheme_, inds_, ind);
    if (typed.ok()) {
      decided = *typed ? ImplicationVerdict::kImplied
                       : ImplicationVerdict::kNotImplied;
      r.engine = "typed-ind-reachability";
    }
  }
  if (decided == ImplicationVerdict::kUnknown && r.engine.empty()) {
    // The general Corollary 3.2 BFS, with proof extraction on demand.
    r.engine = "ind-bfs (Corollary 3.2)";
    IndImplication engine(scheme_, inds_);
    Result<IndDecision> decision =
        engine.Decide(ind, budget, options_.want_proof);
    if (!decision.ok()) {
      r.note = decision.status().ToString();
      r.used.expressions = budget.expressions;
      v.reason = StrCat("IND expression budget exhausted (",
                        budget.expressions, " expressions)");
      PushStage(v, std::move(r));
      return;
    }
    r.used.expressions = decision->expressions_visited;
    decided = decision->implied ? ImplicationVerdict::kImplied
                                : ImplicationVerdict::kNotImplied;
    if (decision->implied && options_.want_proof) {
      v.ind_chain = decision->chain;
      v.ind_proof = std::move(decision->proof);
      r.note = StrCat("IND1/2/3 proof checked, chain length ",
                      decision->chain_length);
    }
  }

  v.engine = r.engine;
  v.outcome = decided;
  r.verdict = decided;
  bool want_evidence = decided == ImplicationVerdict::kNotImplied &&
                       options_.want_counterexample;
  PushStage(v, std::move(r));
  if (!want_evidence) return;
  if (DeadlineExpired(budget, v, "evidence")) return;

  // Counterexample evidence via the Rule (*) construction (Theorem 3.1):
  // finite and unrestricted implication coincide for INDs, and the
  // saturated Rule (*) database is a finite witness of the failure.
  StageReport e{"evidence", "rule-star-chase (Theorem 3.1)",
                ImplicationVerdict::kNotImplied, "", {}};
  IndChaseOptions copts;
  copts.max_tuples = budget.tuples;
  Result<IndChaseResult> witness =
      IndChaseDecide(scheme_, inds_, ind, copts);
  if (!witness.ok()) {
    e.note = StrCat("no witness within the tuple budget: ",
                    witness.status().ToString());
    v.reason =
        "decision is exact; counterexample construction exceeded the "
        "tuple budget";
  } else if (witness->implied) {
    e.note = "Rule (*) chase disagrees with the BFS decision";
    v.reason = "internal inconsistency between IND engines";
  } else {
    e.used.tuples = witness->tuples_added;
    AttachCounterexample(std::move(witness->db), target, v, e);
  }
  PushStage(v, std::move(e));
}

void ImplicationSolver::SolveUnary(const Dependency& target,
                                   const Budget& budget, Verdict& v) {
  StageReport r{"decide", "", ImplicationVerdict::kUnknown, "", {}};
  bool implied = false;
  if (options_.semantics == ImplicationSemantics::kFinite) {
    r.engine = "unary-finite-counting (KCV rules)";
    UnaryFiniteImplication finite(scheme_, fds_, inds_);
    implied = finite.Implies(target);
  } else {
    r.engine = "unary-non-interaction (KCV)";
    UnaryUnrestrictedImplication engine(scheme_, fds_, inds_);
    implied = engine.Implies(target);
  }
  v.engine = r.engine;
  v.outcome = implied ? ImplicationVerdict::kImplied
                      : ImplicationVerdict::kNotImplied;
  r.verdict = v.outcome;
  bool want_evidence = !implied && options_.want_counterexample;
  if (!implied &&
      options_.semantics == ImplicationSemantics::kUnrestricted &&
      UnaryFiniteImplication(scheme_, fds_, inds_).Implies(target)) {
    // The Theorem 4.4 separation: every counterexample is infinite.
    r.note =
        "finitely implied — only infinite counterexamples exist "
        "(Theorem 4.4)";
    want_evidence = false;
  }
  PushStage(v, std::move(r));
  if (!want_evidence) return;
  // A verified counterexample from an earlier Solve over this sigma may
  // already violate the target — replaying it is free, the garnish search
  // below is not. The outcome/engine are already decided (the counting
  // engines are exact); the replay only supplies the evidence database.
  if (ProbeWitnessCache(target, v, /*evidence_only=*/true)) return;
  if (DeadlineExpired(budget, v, "evidence")) return;
  // Best-effort finite witness (|=fin also fails, so one exists — though
  // possibly above the bounded-search ladder). The decision is already
  // exact, so this garnish gets a small slice: a full scan that finds
  // nothing would buy nothing.
  SearchStage(target, budget.Split(options_.evidence_garnish_split), v);
}

void ImplicationSolver::SolveMixed(const Dependency& target,
                                   const Budget& budget, Verdict& v) {
  Budget slice = budget.Split(options_.mixed_stage_split);
  std::vector<std::string> unknown_notes;
  if (DeadlineExpired(budget, v, "derivation")) return;

  // --- Stage 1: sound interaction rules (necessarily incomplete) --------
  {
    StageReport r{"derivation", "mixed-derivation (Props 4.1-4.3)",
                  ImplicationVerdict::kUnknown, "", {}};
    MixedDerivation derivation(scheme_, nontrivial_,
                               MixedDerivation::Options::FromBudget(slice));
    Status st = derivation.Saturate();
    r.used.expressions = derivation.dependency_count();
    if (st.ok() && derivation.Derives(target)) {
      r.verdict = ImplicationVerdict::kImplied;
      v.outcome = ImplicationVerdict::kImplied;
      v.engine = r.engine;
      if (options_.want_proof) v.derivation_trace = derivation.trace();
      r.note = StrCat(derivation.trace().size(),
                      " interaction-rule applications");
      PushStage(v, std::move(r));
      return;
    }
    r.note = st.ok() ? "target not derivable by the sound rules"
                     : st.ToString();
    unknown_notes.push_back(StrCat("derivation: ", r.note));
    PushStage(v, std::move(r));
  }

  // --- Stage order: refute first when the chase may not terminate -------
  // A weakly acyclic IND set guarantees a terminating chase, which is
  // exact both ways: chase first, then the whole ladder. Otherwise the
  // chase is only a semi-decision for kImplied, and a divergent one spends
  // its whole share before any rung starts — so the cheap rungs sweep
  // first. One SplitLadder funds both ranges: every rung gets the share,
  // and the sweep finds the witness, that one sweep after the chase would.
  std::optional<SpecialEdgeCycle> cycle =
      FindSpecialEdgeCycle(*scheme_, inds_, SeedRelation(target));
  std::optional<RefutationPortfolio> portfolio;
  PortfolioResult swept;
  Status searched;
  std::size_t cheap_rungs = 0;
  if (cycle.has_value()) {
    portfolio.emplace(MakePortfolio(target));
    cheap_rungs = portfolio->RungsWithin(slice.steps / kCheapRungDivisor);
    if (DeadlineExpired(budget, v, "search")) return;
    searched = SearchRungs(*portfolio, target, slice, 0, cheap_rungs, swept, v);
    if (v.outcome != ImplicationVerdict::kUnknown) return;
  }
  if (DeadlineExpired(budget, v, "chase")) return;

  // --- Stage 2: budgeted chase proof (universal model) ------------------
  if (ChaseStage(target, slice, unknown_notes, v)) return;
  if (DeadlineExpired(budget, v, "search")) return;

  // --- Stage 3: bounded refutation portfolio (the rest of the ladder) ---
  if (!portfolio.has_value()) portfolio.emplace(MakePortfolio(target));
  Status rest = SearchRungs(*portfolio, target, slice, cheap_rungs,
                            portfolio->ladder().size(), swept, v);
  if (searched.ok()) searched = rest;
  if (v.outcome == ImplicationVerdict::kUnknown) {
    unknown_notes.push_back(
        StrCat("search: ", SearchSummary(searched, swept)));
    if (cycle.has_value()) {
      unknown_notes.push_back(
          StrCat("the chase need not terminate: special-edge cycle ",
                 cycle->ToString(*scheme_), " in the IND position graph"));
    }
    v.reason = StrCat("undecidable fragment — ",
                      JoinStrings(unknown_notes, "; "));
  }
}

bool ImplicationSolver::ChaseStage(const Dependency& target,
                                   const Budget& slice,
                                   std::vector<std::string>& unknown_notes,
                                   Verdict& v) {
  if (!rds_.empty()) {
    StageReport r{"chase", "", ImplicationVerdict::kUnknown,
                  "skipped: RD hypotheses are outside the chase's rule "
                  "arsenal",
                  {}};
    unknown_notes.push_back("chase: skipped (RD hypotheses)");
    PushStage(v, std::move(r));
    return false;
  }
  StageReport r{"chase", "workspace-chase (universal model)",
                ImplicationVerdict::kUnknown, "", {}};
  // A seed this solver already chased to a counter ceiling under this
  // share stops there again: replay the stored run instead.
  ChaseMemo& memo = *chase_memo_;
  std::optional<ChaseMemo::Key> key = ChaseMemo::KeyFor(target, slice);
  const ChaseImplication* replay = key ? memo.Find(*key) : nullptr;
  Result<ChaseImplication> chased =
      replay != nullptr ? Result<ChaseImplication>(*replay)
                        : ChaseImplies(scheme_, fds_, inds_, target, slice);
  if (replay != nullptr) {
    ++memo.stats.chase_replays;
  } else {
    ++memo.stats.chase_runs;
    if (key && chased.ok() && chased->counter_capped) {
      memo.Admit(std::move(*key), *chased);
    }
  }
  if (chased.ok()) r.used = chased->used;
  if (!chased.ok() || chased->verdict == ImplicationVerdict::kUnknown) {
    r.note = chased.ok() ? chased->exhausted.ToString()
                         : chased.status().ToString();
    unknown_notes.push_back(StrCat("chase: ", r.note));
    PushStage(v, std::move(r));
    return false;
  }
  v.chase_stats = WorkspaceChaseStats{ChaseOutcome::kFixpoint,
                                      chased->fd_merges, chased->ind_tuples,
                                      chased->steps};
  if (chased->verdict == ImplicationVerdict::kImplied) {
    v.outcome = ImplicationVerdict::kImplied;
    v.engine = r.engine;
    r.verdict = ImplicationVerdict::kImplied;
    r.note = "target holds in the chased fixpoint";
    PushStage(v, std::move(r));
    return true;
  }
  // The fixpoint refutes the target. Like a search rung's witness, it
  // decides only once the watchers confirm it (and the witness cache may
  // keep it for later Solves over this sigma).
  r.note = "chased fixpoint refutes the target";
  bool genuine = AttachCounterexample(std::move(*chased->counterexample),
                                      target, v, r);
  if (genuine) {
    v.outcome = ImplicationVerdict::kNotImplied;
    v.engine = r.engine;
    r.verdict = ImplicationVerdict::kNotImplied;
  } else {
    unknown_notes.push_back("chase: fixpoint failed verification");
  }
  PushStage(v, std::move(r));
  return genuine;
}

void ImplicationSolver::SolveUnsupported(const Dependency& target,
                                         const Budget& budget, Verdict& v) {
  std::string summary = SearchStage(target, budget, v);
  if (v.outcome == ImplicationVerdict::kUnknown) {
    v.reason = StrCat(
        "no exact engine covers EMVD/MVD sentences; bounded search found ",
        summary.empty() ? std::string("no counterexample within the bound")
                        : summary);
  }
}

RefutationPortfolio ImplicationSolver::MakePortfolio(
    const Dependency& target) {
  PortfolioOptions opts;
  opts.base.max_tuples_per_relation = options_.search_max_tuples_per_relation;
  opts.base.domain_size = options_.search_domain_size;
  opts.tuple_growth = options_.search_tuple_growth;
  opts.domain_growth = options_.search_domain_growth;
  opts.max_rungs = options_.search_max_rungs;
  opts.workspace = options_.shared_search_tables != nullptr
                       ? options_.shared_search_tables
                       : &search_ws_;
  return RefutationPortfolio(scheme_, nontrivial_, target, opts);
}

std::string ImplicationSolver::SearchStage(const Dependency& target,
                                           const Budget& budget, Verdict& v) {
  RefutationPortfolio portfolio = MakePortfolio(target);
  PortfolioResult swept;
  Status searched = SearchRungs(portfolio, target, budget, 0,
                                portfolio.ladder().size(), swept, v);
  if (v.outcome == ImplicationVerdict::kNotImplied) return "";
  return SearchSummary(searched, swept);
}

Status ImplicationSolver::SearchRungs(RefutationPortfolio& portfolio,
                                      const Dependency& target,
                                      const Budget& budget, std::size_t first,
                                      std::size_t last, PortfolioResult& swept,
                                      Verdict& v) {
  Result<PortfolioResult> run = portfolio.RunRungs(budget, first, last);
  if (!run.ok()) {
    StageReport r{"search", "bounded-search (portfolio)",
                  ImplicationVerdict::kUnknown, run.status().ToString(), {}};
    PushStage(v, std::move(r));
    return run.status();
  }
  PortfolioResult& result = *run;
  // One stage report per rung the sweep reached, ladder (cost) order.
  // Skipped rungs keep the empty-engine "skipped" convention; ran rungs
  // name the engine that ran and carry their candidate consumption in
  // used.steps.
  for (std::size_t i = 0; i < result.rungs.size(); ++i) {
    RungReport& rung = result.rungs[i];
    StageReport r{"search", rung.engine, ImplicationVerdict::kUnknown,
                  rung.note, {}};
    r.used.steps = rung.candidates_tested;
    if (i == result.winner && result.counterexample.has_value()) {
      bool undecided = v.outcome == ImplicationVerdict::kUnknown;
      Database witness = std::move(*result.counterexample);
      result.counterexample.reset();
      bool genuine = AttachCounterexample(std::move(witness), target, v, r);
      if (genuine) {
        r.verdict = ImplicationVerdict::kNotImplied;
        if (undecided) {
          v.outcome = ImplicationVerdict::kNotImplied;
          if (v.engine.empty()) v.engine = r.engine;
        }
      }
    }
    PushStage(v, std::move(r));
  }
  swept.Append(std::move(result));
  return Status::OK();
}

Result<Verdict> SolveImplication(SchemePtr scheme,
                                 std::vector<Dependency> sigma,
                                 const Dependency& target,
                                 const Budget& budget,
                                 SolveOptions options) {
  ImplicationSolver solver(std::move(scheme), std::move(sigma), options);
  return solver.Solve(target, budget);
}

}  // namespace ccfp
