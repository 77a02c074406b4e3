#include "chase/chase.h"

#include <algorithm>
#include <unordered_map>

#include "chase/workspace_chase.h"
#include "util/check.h"
#include "util/strings.h"

namespace ccfp {

namespace {

/// Union-find over values (naive reference engine). Roots prefer
/// constants, so merging a labeled null with a constant resolves the null.
/// Merging two distinct constants is a chase failure.
class ValueUnion {
 public:
  /// Iterative find with full path compression. Deliberately not
  /// recursive: a merge chain built root-under-root (e.g. pairs unioned in
  /// decreasing null order) is only traversed at MapValues time, by which
  /// point it can be hundreds of thousands of links deep — recursion
  /// overflowed the stack there.
  Value Find(const Value& v) {
    auto it = parent_.find(v);
    if (it == parent_.end()) return v;
    Value root = it->second;
    for (auto next = parent_.find(root); next != parent_.end();
         next = parent_.find(root)) {
      root = next->second;
    }
    Value cur = v;
    while (!(cur == root)) {
      auto hop = parent_.find(cur);
      Value next = hop->second;
      if (!(next == root)) hop->second = root;
      cur = std::move(next);
    }
    return root;
  }

  enum class UnionOutcome : std::uint8_t {
    kMerged,        ///< two classes joined
    kAlreadyEqual,  ///< same class; nothing to do (e.g. duplicate FDs)
    kClash,         ///< two distinct constants
  };

  UnionOutcome Union(const Value& a, const Value& b) {
    Value ra = Find(a), rb = Find(b);
    if (ra == rb) return UnionOutcome::kAlreadyEqual;
    bool a_const = !ra.is_null(), b_const = !rb.is_null();
    if (a_const && b_const) return UnionOutcome::kClash;
    if (a_const) {
      parent_[rb] = ra;
    } else if (b_const) {
      parent_[ra] = rb;
    } else {
      // Both nulls: lower id wins (deterministic output).
      if (ra.null_id() < rb.null_id()) {
        parent_[rb] = ra;
      } else {
        parent_[ra] = rb;
      }
    }
    return UnionOutcome::kMerged;
  }

  bool empty() const { return parent_.empty(); }
  void Clear() { parent_.clear(); }

 private:
  std::unordered_map<Value, Value, ValueHash> parent_;
};

std::uint64_t MaxNullId(const Database& db) {
  std::uint64_t max_id = 0;
  for (RelId rel = 0; rel < db.scheme().size(); ++rel) {
    for (const Tuple& t : db.relation(rel).tuples()) {
      for (const Value& v : t) {
        if (v.is_null()) max_id = std::max(max_id, v.null_id());
      }
    }
  }
  return max_id;
}

}  // namespace

Chase::Chase(SchemePtr scheme, std::vector<Fd> fds, std::vector<Ind> inds)
    : scheme_(std::move(scheme)), fds_(std::move(fds)),
      inds_(std::move(inds)) {
  for (const Fd& fd : fds_) {
    Status st = Validate(*scheme_, fd);
    CCFP_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
  for (const Ind& ind : inds_) {
    Status st = Validate(*scheme_, ind);
    CCFP_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
}

Result<ChaseResult> Chase::Run(Database initial,
                               const ChaseOptions& options) const {
  if (options.engine == ChaseEngine::kNaive) {
    return RunNaive(std::move(initial), options);
  }
  CCFP_ASSIGN_OR_RETURN(InternedChaseResult interned,
                        RunInterned(std::move(initial), options));
  ChaseResult result(interned.ws.Materialize());
  result.outcome = interned.outcome;
  result.fd_merges = interned.fd_merges;
  result.ind_tuples = interned.ind_tuples;
  result.steps = interned.steps;
  return result;
}

Result<InternedChaseResult> Chase::RunInterned(
    Database initial, const ChaseOptions& options) const {
  InternedChaseResult result(scheme_);
  if (options.engine == ChaseEngine::kNaive) {
    CCFP_ASSIGN_OR_RETURN(ChaseResult naive,
                          RunNaive(std::move(initial), options));
    result.ws.AppendDatabase(naive.db);
    result.outcome = naive.outcome;
    result.fd_merges = naive.fd_merges;
    result.ind_tuples = naive.ind_tuples;
    result.steps = naive.steps;
    return result;
  }
  result.ws.AppendDatabase(initial);
  {
    // Scoped so the chase releases its feed cursor before `result` moves.
    WorkspaceChase chaser(&result.ws, fds_, inds_);
    CCFP_ASSIGN_OR_RETURN(WorkspaceChaseStats stats, chaser.Run(options));
    result.outcome = stats.outcome;
    result.fd_merges = stats.fd_merges;
    result.ind_tuples = stats.ind_tuples;
    result.steps = stats.steps;
  }
  return result;
}

/// The original engine: restart-scan until no rule fires. Kept verbatim
/// (modulo the iterative ValueUnion) as the differential-testing reference
/// for the incremental engine.
Result<ChaseResult> Chase::RunNaive(Database initial,
                                    const ChaseOptions& options) const {
  ChaseResult result(std::move(initial));
  std::uint64_t next_null = MaxNullId(result.db) + 1;

  bool changed = true;
  while (changed) {
    changed = false;

    // --- FD (equality-generating) pass -----------------------------------
    // Repeats until no FD fires, because merges cascade.
    bool fd_changed = true;
    while (fd_changed) {
      fd_changed = false;
      ValueUnion uf;
      for (const Fd& fd : fds_) {
        const Relation& r = result.db.relation(fd.rel);
        std::unordered_map<Tuple, std::size_t, TupleHash> first_by_lhs;
        for (std::size_t i = 0; i < r.size(); ++i) {
          const Tuple& t = r.tuples()[i];
          Tuple key = ProjectTuple(t, fd.lhs);
          auto [it, inserted] = first_by_lhs.emplace(std::move(key), i);
          if (inserted) continue;
          const Tuple& t0 = r.tuples()[it->second];
          for (AttrId y : fd.rhs) {
            if (t0[y] == t[y]) continue;
            // fd_merges counts *actual* class merges, not observed raw
            // mismatches: a duplicate FD re-observing the same violation
            // must not count (or trigger) anything — the incremental
            // engine counts identically. Steps likewise: one step per
            // merge (plus one per generated tuple below), so both engines
            // consume the max_steps budget at the same rate and agree on
            // ResourceExhausted.
            switch (uf.Union(t0[y], t[y])) {
              case ValueUnion::UnionOutcome::kClash:
                result.outcome = ChaseOutcome::kFailed;
                return result;
              case ValueUnion::UnionOutcome::kAlreadyEqual:
                break;
              case ValueUnion::UnionOutcome::kMerged:
                ++result.fd_merges;
                fd_changed = true;
                if (++result.steps > options.max_steps) {
                  return Status::ResourceExhausted(
                      "chase step budget exhausted");
                }
                break;
            }
          }
        }
      }
      if (fd_changed) {
        for (RelId rel = 0; rel < scheme_->size(); ++rel) {
          result.db.relation(rel).MapValues(
              [&uf](const Value& v) { return uf.Find(v); });
        }
        changed = true;
      }
    }

    // --- IND (tuple-generating) pass --------------------------------------
    for (const Ind& ind : inds_) {
      const Relation& lhs = result.db.relation(ind.lhs_rel);
      auto rhs_proj = result.db.relation(ind.rhs_rel).ProjectSet(ind.rhs);
      // Collect missing tuples first: inserting while scanning the same
      // relation (self-INDs) would invalidate iteration.
      std::vector<Tuple> missing;
      for (const Tuple& t : lhs.tuples()) {
        Tuple p = ProjectTuple(t, ind.lhs);
        if (rhs_proj.count(p) == 0) {
          rhs_proj.insert(p);
          missing.push_back(std::move(p));
        }
      }
      for (Tuple& p : missing) {
        Tuple fresh(scheme_->relation(ind.rhs_rel).arity(), Value());
        for (std::size_t i = 0; i < fresh.size(); ++i) {
          fresh[i] = Value::Null(next_null++);
        }
        for (std::size_t i = 0; i < ind.width(); ++i) {
          fresh[ind.rhs[i]] = std::move(p[i]);
        }
        result.db.Insert(ind.rhs_rel, std::move(fresh));
        ++result.ind_tuples;
        changed = true;
        if (++result.steps > options.max_steps ||
            result.db.TotalTuples() > options.max_tuples) {
          return Status::ResourceExhausted("chase budget exhausted");
        }
      }
    }
  }

  result.outcome = ChaseOutcome::kFixpoint;
  return result;
}

Result<Database> MakeCanonicalSeed(SchemePtr scheme,
                                   const Dependency& target) {
  CCFP_RETURN_NOT_OK(Validate(*scheme, target));
  Database seed(scheme);
  std::uint64_t next_null = 1;

  switch (target.kind()) {
    case DependencyKind::kFd: {
      // Two tuples sharing nulls exactly on the FD's left-hand side.
      const Fd& fd = target.fd();
      std::size_t arity = scheme->relation(fd.rel).arity();
      Tuple t1(arity), t2(arity);
      for (AttrId a = 0; a < arity; ++a) {
        bool shared = std::find(fd.lhs.begin(), fd.lhs.end(), a) !=
                      fd.lhs.end();
        t1[a] = Value::Null(next_null++);
        t2[a] = shared ? t1[a] : Value::Null(next_null++);
      }
      seed.Insert(fd.rel, std::move(t1));
      seed.Insert(fd.rel, std::move(t2));
      break;
    }
    case DependencyKind::kInd: {
      const Ind& ind = target.ind();
      std::size_t arity = scheme->relation(ind.lhs_rel).arity();
      Tuple t(arity);
      for (AttrId a = 0; a < arity; ++a) t[a] = Value::Null(next_null++);
      seed.Insert(ind.lhs_rel, std::move(t));
      break;
    }
    case DependencyKind::kRd: {
      const Rd& rd = target.rd();
      std::size_t arity = scheme->relation(rd.rel).arity();
      Tuple t(arity);
      for (AttrId a = 0; a < arity; ++a) t[a] = Value::Null(next_null++);
      seed.Insert(rd.rel, std::move(t));
      break;
    }
    default:
      return Status::Unimplemented(
          "ChaseImplies supports FD, IND, and RD targets");
  }
  return seed;
}

Result<bool> ChaseImplies(SchemePtr scheme, const std::vector<Fd>& fds,
                          const std::vector<Ind>& inds,
                          const Dependency& target,
                          const ChaseOptions& options) {
  CCFP_ASSIGN_OR_RETURN(Database seed, MakeCanonicalSeed(scheme, target));
  Chase chase(scheme, fds, inds);
  CCFP_ASSIGN_OR_RETURN(InternedChaseResult result,
                        chase.RunInterned(std::move(seed), options));
  if (result.outcome == ChaseOutcome::kFailed) {
    // Cannot happen from an all-null seed (no constants to clash); if a
    // caller seeds constants via Run directly they handle failure there.
    return Status::Internal("chase failed from an all-null seed");
  }
  // The fixpoint is a universal model of (Sigma, seed): the target holds in
  // it iff Sigma implies the target. The fixpoint is already interned, so
  // the check is pure integer probing.
  return result.ws.Satisfies(target);
}

Result<ChaseImplication> ChaseImplies(SchemePtr scheme,
                                      const std::vector<Fd>& fds,
                                      const std::vector<Ind>& inds,
                                      const Dependency& target,
                                      const Budget& budget) {
  CCFP_ASSIGN_OR_RETURN(Database seed, MakeCanonicalSeed(scheme, target));
  InternedWorkspace ws(scheme);
  ws.AppendDatabase(seed);
  WorkspaceChase chase(&ws, fds, inds);
  Result<WorkspaceChaseStats> run = chase.Run(ChaseOptions::FromBudget(budget));
  // last_run() is filled on both return paths, so an exhausted chase
  // reports what it actually consumed.
  ChaseImplication out;
  out.fd_merges = chase.last_run().fd_merges;
  out.ind_tuples = chase.last_run().ind_tuples;
  out.steps = chase.last_run().steps;
  out.used.steps = out.steps;
  out.used.tuples = out.ind_tuples;
  if (!run.ok()) {
    // Budget exhaustion is the kUnknown verdict, not an error.
    if (run.status().code() != StatusCode::kResourceExhausted) {
      return run.status();
    }
    return out;
  }
  if (run->outcome == ChaseOutcome::kFailed) {
    return Status::Internal("chase failed from an all-null seed");
  }
  if (ws.Satisfies(target)) {
    out.verdict = ImplicationVerdict::kImplied;
    return out;
  }
  // The fixpoint refutes the target; re-check it against sigma in
  // id-space before handing it out as evidence (a fixpoint violating its
  // own sigma would be an engine bug, not a counterexample).
  for (const Fd& fd : fds) {
    if (!ws.Satisfies(fd)) {
      return Status::Internal("chase fixpoint violates a sigma FD");
    }
  }
  for (const Ind& ind : inds) {
    if (!ws.Satisfies(ind)) {
      return Status::Internal("chase fixpoint violates a sigma IND");
    }
  }
  out.verdict = ImplicationVerdict::kNotImplied;
  out.counterexample = ws.Materialize();
  return out;
}

}  // namespace ccfp
