#include "chase/emvd_chase.h"

#include <algorithm>
#include <unordered_set>

#include "util/strings.h"

namespace ccfp {

namespace {

std::vector<AttrId> UnionSeq(const std::vector<AttrId>& a,
                             const std::vector<AttrId>& b) {
  std::vector<AttrId> out = a;
  for (AttrId x : b) {
    if (std::find(out.begin(), out.end(), x) == out.end()) out.push_back(x);
  }
  return out;
}

/// ------------------------------------------------------------------------
/// Delta-driven rounds in id-space: a pair is a packed (XY-group, XZ-group)
/// id pair read off the workspace's cached partitions — which only *extend*
/// across rounds, since the EMVD chase is append-only — and a witness is
/// assembled directly from stored ValueIds.
/// No projection Tuple is built or hashed anywhere.
/// ------------------------------------------------------------------------

/// Per-EMVD state persisted across rounds, in id-space.
struct WsEmvdState {
  std::vector<AttrId> xy;
  std::vector<AttrId> xz;
  /// Packed (XY group, XZ group) combinations present or witnessed.
  std::unordered_set<std::uint64_t> pairs;
  /// Per X-partition group: incorporated tuple slots in that group.
  std::vector<std::vector<std::uint32_t>> members;
  /// Slots below this index are incorporated into pairs/members.
  std::uint32_t cursor = 0;
};

}  // namespace

Result<std::uint64_t> EmvdChaseFixpointOnWorkspace(
    InternedWorkspace& ws, const std::vector<Emvd>& sigma,
    const EmvdChaseOptions& options) {
  const DatabaseScheme& scheme = ws.scheme();
  for (const Emvd& e : sigma) CCFP_RETURN_NOT_OK(Validate(scheme, e));
  std::uint64_t added = 0;

  std::vector<WsEmvdState> states(sigma.size());
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    states[i].xy = UnionSeq(sigma[i].x, sigma[i].y);
    states[i].xz = UnionSeq(sigma[i].x, sigma[i].z);
  }

  std::vector<IdTuple> new_tuples;
  for (std::uint64_t round = 0;; ++round) {
    if (round >= options.max_rounds) {
      return Status::ResourceExhausted(
          StrCat("EMVD chase round budget of ", options.max_rounds,
                 " exhausted"));
    }
    bool changed = false;
    for (std::size_t ei = 0; ei < sigma.size(); ++ei) {
      const Emvd& e = sigma[ei];
      WsEmvdState& state = states[ei];
      const std::size_t arity = scheme.relation(e.rel).arity();
      // Extended over the delta only (append-only => epochs never change).
      const InternedWorkspace::Partition& px = ws.partition(e.rel, e.x);
      const InternedWorkspace::Partition& pxy =
          ws.partition(e.rel, state.xy);
      const InternedWorkspace::Partition& pxz =
          ws.partition(e.rel, state.xz);
      std::uint32_t end = static_cast<std::uint32_t>(ws.size(e.rel));
      new_tuples.clear();
      // Self-pairs for the whole delta first — a cross pair may be
      // witnessed by a later-index delta tuple, so seeding lazily would
      // spawn spurious witnesses.
      // Dead slots (killed by an earlier FD+IND chase's merges on a shared
      // workspace) carry kNoGroup and take part in nothing.
      for (std::uint32_t i = state.cursor; i < end; ++i) {
        if (px.group_of[i] == InternedWorkspace::kNoGroup) continue;
        state.pairs.insert(PackIdPair(pxy.group_of[i], pxz.group_of[i]));
      }
      if (state.members.size() < px.group_count) {
        state.members.resize(px.group_count);
      }
      for (std::uint32_t i = state.cursor; i < end; ++i) {
        if (px.group_of[i] == InternedWorkspace::kNoGroup) continue;
        std::uint32_t gy_i = pxy.group_of[i];
        std::uint32_t gz_i = pxz.group_of[i];
        std::vector<std::uint32_t>& members = state.members[px.group_of[i]];
        for (std::uint32_t j : members) {
          // Both orientations: (new, old) and (old, new).
          for (int dir = 0; dir < 2; ++dir) {
            std::uint32_t gy = dir == 0 ? gy_i : pxy.group_of[j];
            std::uint32_t gz = dir == 0 ? pxz.group_of[j] : gz_i;
            if (!state.pairs.insert(PackIdPair(gy, gz)).second) continue;
            std::uint32_t xy_src = dir == 0 ? i : j;
            std::uint32_t xz_src = dir == 0 ? j : i;
            IdTuple t3(arity, 0);
            // Fresh labels for every position, then overwrite the XY/XZ
            // ones — byte-for-byte the heap-Value reference's numbering
            // (tests/reference/emvd_chase.h), so both label identically.
            for (std::size_t a = 0; a < arity; ++a) {
              t3[a] = ws.InternFreshNull();
            }
            IdRow txy = ws.tuple(e.rel, xy_src);
            for (AttrId c : state.xy) t3[c] = txy[c];
            IdRow txz = ws.tuple(e.rel, xz_src);
            for (AttrId c : state.xz) t3[c] = txz[c];
            new_tuples.push_back(std::move(t3));
          }
        }
        members.push_back(i);
      }
      state.cursor = end;
      for (IdTuple& t3 : new_tuples) {
        if (ws.Append(e.rel, std::move(t3))) {
          ++added;
          changed = true;
        }
        if (ws.TotalAliveTuples() > options.max_tuples) {
          return Status::ResourceExhausted(
              StrCat("EMVD chase tuple budget of ", options.max_tuples,
                     " exhausted"));
        }
      }
    }
    if (!changed) return added;
  }
}

Result<std::uint64_t> EmvdChaseFixpoint(Database& db,
                                        const std::vector<Emvd>& sigma,
                                        const EmvdChaseOptions& options) {
  for (const Emvd& e : sigma) CCFP_RETURN_NOT_OK(Validate(db.scheme(), e));
  InternedWorkspace ws(db.scheme_ptr());
  ws.AppendDatabase(db);
  Result<std::uint64_t> result =
      EmvdChaseFixpointOnWorkspace(ws, sigma, options);
  // Write back on success *and* on budget exhaustion, so `db` holds the
  // partial chase either way.
  db = ws.Materialize();
  return result;
}

Result<bool> EmvdChaseImplies(SchemePtr scheme,
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

  // One workspace carries the whole pipeline: seed, chase, and the final
  // Satisfies probe all share the interner and the cached partitions.
  InternedWorkspace ws(std::move(scheme));
  ws.AppendTuple(target.rel, t1);
  ws.AppendTuple(target.rel, t2);
  CCFP_ASSIGN_OR_RETURN(std::uint64_t added,
                        EmvdChaseFixpointOnWorkspace(ws, sigma, options));
  (void)added;
  return ws.Satisfies(target);
}

}  // namespace ccfp
