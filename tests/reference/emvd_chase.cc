#include "reference/emvd_chase.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/satisfies.h"
#include "util/strings.h"

namespace ccfp::reference {

namespace {

std::vector<AttrId> UnionSeq(const std::vector<AttrId>& a,
                             const std::vector<AttrId>& b) {
  std::vector<AttrId> out = a;
  for (AttrId x : b) {
    if (std::find(out.begin(), out.end(), x) == out.end()) out.push_back(x);
  }
  return out;
}

std::uint64_t MaxNullIdIn(const Database& db) {
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

/// Per-EMVD state persisted across chase rounds, so each round only joins
/// the *new* tuples against their X-groups instead of rebuilding the pair
/// set and the groups from every tuple of the relation.
struct LegacyEmvdState {
  std::vector<AttrId> xy;
  std::vector<AttrId> xz;
  /// Every (t1[XY], t2[XZ]) combination already present or witnessed.
  std::unordered_set<Tuple, TupleHash> pairs;
  /// X-projection -> indexes of incorporated tuples with that projection.
  std::unordered_map<Tuple, std::vector<std::size_t>, TupleHash> groups;
  /// Tuples below this index are incorporated into pairs/groups.
  std::size_t cursor = 0;
};

}  // namespace

Result<std::uint64_t> LegacyEmvdChaseFixpoint(
    Database& db, const std::vector<Emvd>& sigma,
    const EmvdChaseOptions& options) {
  for (const Emvd& e : sigma) CCFP_RETURN_NOT_OK(Validate(db.scheme(), e));
  std::uint64_t next_null = MaxNullIdIn(db) + 1;
  std::uint64_t added = 0;

  std::vector<LegacyEmvdState> states(sigma.size());
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    states[i].xy = UnionSeq(sigma[i].x, sigma[i].y);
    states[i].xz = UnionSeq(sigma[i].x, sigma[i].z);
  }

  for (std::uint64_t round = 0;; ++round) {
    if (round >= options.max_rounds) {
      return Status::ResourceExhausted(
          StrCat("EMVD chase round budget of ", options.max_rounds,
                 " exhausted"));
    }
    bool changed = false;
    for (std::size_t ei = 0; ei < sigma.size(); ++ei) {
      const Emvd& e = sigma[ei];
      LegacyEmvdState& state = states[ei];
      Relation& r = db.relation(e.rel);
      // Incorporate the delta since this EMVD's last round; witnesses are
      // collected first and inserted after, keeping rounds breadth-first
      // (tuples born this round join the groups next round).
      std::size_t end = r.size();
      std::vector<Tuple> new_tuples;
      // Seed every delta tuple's own (XY, XZ) pair *before* any cross
      // pair is examined — a cross pair can be witnessed by a later-index
      // delta tuple, and the full-scan reference seeds all self-pairs up
      // front, so seeding lazily would spawn spurious witnesses.
      for (std::size_t i = state.cursor; i < end; ++i) {
        const Tuple& ti = r.tuples()[i];
        Tuple self = ProjectTuple(ti, state.xy);
        Tuple tail = ProjectTuple(ti, state.xz);
        self.insert(self.end(), tail.begin(), tail.end());
        state.pairs.insert(std::move(self));
      }
      for (std::size_t i = state.cursor; i < end; ++i) {
        const Tuple& ti = r.tuples()[i];
        Tuple ti_xy = ProjectTuple(ti, state.xy);
        Tuple ti_xz = ProjectTuple(ti, state.xz);
        std::vector<std::size_t>& members =
            state.groups[ProjectTuple(ti, e.x)];
        for (std::size_t j : members) {
          const Tuple& tj = r.tuples()[j];
          Tuple tj_xy = ProjectTuple(tj, state.xy);
          Tuple tj_xz = ProjectTuple(tj, state.xz);
          // Both orientations: (new, old) and (old, new).
          for (int dir = 0; dir < 2; ++dir) {
            const Tuple& a_xy = dir == 0 ? ti_xy : tj_xy;
            const Tuple& b_xz = dir == 0 ? tj_xz : ti_xz;
            Tuple key = a_xy;
            key.insert(key.end(), b_xz.begin(), b_xz.end());
            if (!state.pairs.insert(std::move(key)).second) continue;
            Tuple t3(r.arity());
            for (std::size_t a = 0; a < r.arity(); ++a) {
              t3[a] = Value::Null(next_null++);
            }
            for (std::size_t c = 0; c < state.xy.size(); ++c) {
              t3[state.xy[c]] = a_xy[c];
            }
            for (std::size_t c = 0; c < state.xz.size(); ++c) {
              t3[state.xz[c]] = b_xz[c];
            }
            new_tuples.push_back(std::move(t3));
          }
        }
        members.push_back(i);
      }
      state.cursor = end;
      for (Tuple& t3 : new_tuples) {
        if (r.Insert(std::move(t3))) {
          ++added;
          changed = true;
        }
        if (db.TotalTuples() > options.max_tuples) {
          return Status::ResourceExhausted(
              StrCat("EMVD chase tuple budget of ", options.max_tuples,
                     " exhausted"));
        }
      }
    }
    if (!changed) return added;
  }
}

Result<bool> LegacyEmvdChaseImplies(SchemePtr scheme,
                                    const std::vector<Emvd>& sigma,
                                    const Emvd& target,
                                    const EmvdChaseOptions& options) {
  CCFP_RETURN_NOT_OK(Validate(*scheme, target));
  std::size_t arity = scheme->relation(target.rel).arity();
  std::uint64_t next_null = 1;
  Tuple t1(arity), t2(arity);
  for (AttrId a = 0; a < arity; ++a) {
    bool shared = std::find(target.x.begin(), target.x.end(), a) !=
                  target.x.end();
    t1[a] = Value::Null(next_null++);
    t2[a] = shared ? t1[a] : Value::Null(next_null++);
  }
  Database db(scheme);
  db.Insert(target.rel, std::move(t1));
  db.Insert(target.rel, std::move(t2));
  CCFP_ASSIGN_OR_RETURN(std::uint64_t added,
                        LegacyEmvdChaseFixpoint(db, sigma, options));
  (void)added;
  return Satisfies(db, target);
}

}  // namespace ccfp::reference
