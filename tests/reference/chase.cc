#include "reference/chase.h"

#include <algorithm>
#include <unordered_map>

#include "core/satisfies.h"

namespace ccfp::reference {

namespace {

/// Union-find over values. Roots prefer constants, so merging a labeled
/// null with a constant resolves the null. Merging two distinct constants
/// is a chase failure.
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

/// Restart-scan until no rule fires.
Result<ChaseResult> NaiveChase(const Chase& chase, Database initial,
                               const ChaseOptions& options) {
  ChaseResult result(std::move(initial));
  const DatabaseScheme& scheme = result.db.scheme();
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
      for (const Fd& fd : chase.fds()) {
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
            // must not count (or trigger) anything — the library engine
            // counts identically. Steps likewise: one step per merge (plus
            // one per generated tuple below), so both engines consume the
            // max_steps budget at the same rate and agree on
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
        for (RelId rel = 0; rel < scheme.size(); ++rel) {
          result.db.relation(rel).MapValues(
              [&uf](const Value& v) { return uf.Find(v); });
        }
        changed = true;
      }
    }

    // --- IND (tuple-generating) pass --------------------------------------
    for (const Ind& ind : chase.inds()) {
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
        Tuple fresh(scheme.relation(ind.rhs_rel).arity(), Value());
        for (std::size_t i = 0; i < fresh.size(); ++i) {
          fresh[i] = Value::Null(next_null++);
        }
        for (std::size_t i = 0; i < ind.width(); ++i) {
          fresh[ind.rhs[i]] = std::move(p[i]);
        }
        result.db.Insert(ind.rhs_rel, std::move(fresh));
        ++result.ind_tuples;
        changed = true;
        if (++result.steps > options.max_steps) {
          return Status::ResourceExhausted("chase step budget exhausted");
        }
        if (result.db.TotalTuples() > options.max_tuples) {
          return Status::ResourceExhausted("chase tuple ceiling exceeded");
        }
      }
    }
  }

  result.outcome = ChaseOutcome::kFixpoint;
  return result;
}

Result<bool> NaiveChaseImplies(SchemePtr scheme, const std::vector<Fd>& fds,
                               const std::vector<Ind>& inds,
                               const Dependency& target,
                               const ChaseOptions& options) {
  CCFP_ASSIGN_OR_RETURN(Database seed, MakeCanonicalSeed(scheme, target));
  Chase chase(scheme, fds, inds);
  CCFP_ASSIGN_OR_RETURN(ChaseResult result,
                        NaiveChase(chase, std::move(seed), options));
  if (result.outcome == ChaseOutcome::kFailed) {
    return Status::Internal("chase failed from an all-null seed");
  }
  return Satisfies(result.db, target);
}

}  // namespace ccfp::reference
