#include "mine/discovery.h"

#include <algorithm>
#include <functional>

namespace ccfp {

namespace {

void ForEachSortedSubset(
    std::size_t arity, std::size_t max_size, bool include_empty,
    const std::function<void(const std::vector<AttrId>&)>& fn) {
  std::vector<AttrId> current;
  std::function<void(AttrId)> rec = [&](AttrId start) {
    if (include_empty || !current.empty()) fn(current);
    if (current.size() >= max_size) return;
    for (AttrId a = start; a < arity; ++a) {
      current.push_back(a);
      rec(a + 1);
      current.pop_back();
    }
  };
  rec(0);
}

void ForEachSequence(
    std::size_t arity, std::size_t width,
    const std::function<void(const std::vector<AttrId>&)>& fn) {
  std::vector<AttrId> current;
  std::vector<bool> used(arity, false);
  std::function<void()> rec = [&]() {
    if (current.size() == width) {
      fn(current);
      return;
    }
    for (AttrId a = 0; a < arity; ++a) {
      if (used[a]) continue;
      used[a] = true;
      current.push_back(a);
      rec();
      current.pop_back();
      used[a] = false;
    }
  };
  rec();
}

bool LhsSubsumes(const std::vector<AttrId>& small,
                 const std::vector<AttrId>& big) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

}  // namespace

std::vector<Fd> MineFds(const InternedWorkspace& ws, RelId rel,
                        const FdMiningOptions& options) {
  // r satisfies X -> A iff |r[X]| == |r[XA]|, and the workspace keeps each
  // cached partition's alive-group count exact under appends and merges:
  // a candidate is two counter reads, and re-mining after an append costs
  // extending the cached partitions over the delta. An empty relation
  // satisfies every candidate and compiles nothing.
  std::size_t arity = ws.scheme().relation(rel).arity();
  bool empty = ws.AliveTuples(rel) == 0;
  std::vector<Fd> mined;
  std::vector<AttrId> xa;
  ForEachSortedSubset(
      arity, options.max_lhs, options.include_constants,
      [&](const std::vector<AttrId>& lhs) {
        std::uint32_t lhs_groups = 1;  // |r[{}]| once r is nonempty
        if (!empty && !lhs.empty()) {
          lhs_groups = ws.partition(rel, lhs).alive_groups;
        }
        for (AttrId rhs = 0; rhs < arity; ++rhs) {
          auto at = std::lower_bound(lhs.begin(), lhs.end(), rhs);
          if (at != lhs.end() && *at == rhs) continue;  // trivial
          if (!empty) {
            xa.assign(lhs.begin(), at);
            xa.push_back(rhs);
            xa.insert(xa.end(), at, lhs.end());
            if (ws.partition(rel, xa).alive_groups != lhs_groups) continue;
          }
          mined.push_back(Fd{rel, lhs, {rhs}});
        }
      });
  if (!options.minimal_only) return mined;

  // Keep an FD only if no other mined FD with the same rhs has a strictly
  // smaller lhs (both lhs are sorted).
  std::vector<Fd> minimal;
  for (const Fd& fd : mined) {
    bool subsumed = false;
    for (const Fd& other : mined) {
      if (other.rhs != fd.rhs || other.lhs == fd.lhs) continue;
      if (other.lhs.size() < fd.lhs.size() &&
          LhsSubsumes(other.lhs, fd.lhs)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) minimal.push_back(fd);
  }
  return minimal;
}

std::vector<Fd> MineFds(const Database& db, RelId rel,
                        const FdMiningOptions& options) {
  InternedWorkspace ws(db.scheme_ptr());
  ws.AppendRelation(db, rel);
  return MineFds(ws, rel, options);
}

std::vector<Ind> MineInds(const InternedWorkspace& ws,
                          const IndMiningOptions& options) {
  const DatabaseScheme& scheme = ws.scheme();
  std::vector<Ind> mined;
  for (std::size_t width = 1; width <= options.max_width; ++width) {
    for (RelId r1 = 0; r1 < scheme.size(); ++r1) {
      if (scheme.relation(r1).arity() < width) continue;
      if (options.skip_vacuous && ws.AliveTuples(r1) == 0) continue;
      for (RelId r2 = 0; r2 < scheme.size(); ++r2) {
        if (scheme.relation(r2).arity() < width) continue;
        ForEachSequence(
            scheme.relation(r1).arity(), width,
            [&](const std::vector<AttrId>& lhs) {
              ForEachSequence(
                  scheme.relation(r2).arity(), width,
                  [&](const std::vector<AttrId>& rhs) {
                    Ind candidate{r1, lhs, r2, rhs};
                    if (IsTrivial(candidate)) return;
                    if (ws.Satisfies(candidate)) {
                      mined.push_back(candidate);
                    }
                  });
            });
      }
    }
  }
  return mined;
}

std::vector<Ind> MineInds(const Database& db,
                          const IndMiningOptions& options) {
  InternedWorkspace ws(db.scheme_ptr());
  ws.AppendDatabase(db);
  return MineInds(ws, options);
}

std::vector<Rd> MineRds(const InternedWorkspace& ws) {
  const DatabaseScheme& scheme = ws.scheme();
  std::vector<Rd> mined;
  for (RelId rel = 0; rel < scheme.size(); ++rel) {
    if (ws.AliveTuples(rel) == 0) continue;  // vacuous RDs are noise
    std::size_t arity = scheme.relation(rel).arity();
    for (AttrId a = 0; a < arity; ++a) {
      for (AttrId b = a + 1; b < arity; ++b) {
        Rd candidate{rel, {a}, {b}};
        if (ws.Satisfies(candidate)) mined.push_back(candidate);
      }
    }
  }
  return mined;
}

std::vector<Rd> MineRds(const Database& db) {
  InternedWorkspace ws(db.scheme_ptr());
  ws.AppendDatabase(db);
  return MineRds(ws);
}

}  // namespace ccfp
