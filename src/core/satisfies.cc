#include "core/satisfies.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/workspace.h"
#include "util/strings.h"

namespace ccfp {

namespace {

/// The relations a dependency's satisfaction depends on — the interned
/// single-dependency fast path appends only these.
std::vector<RelId> InvolvedRels(const Dependency& dep) {
  switch (dep.kind()) {
    case DependencyKind::kFd:
      return {dep.fd().rel};
    case DependencyKind::kInd:
      return {dep.ind().lhs_rel, dep.ind().rhs_rel};
    case DependencyKind::kRd:
      return {dep.rd().rel};
    case DependencyKind::kEmvd:
      return {dep.emvd().rel};
    case DependencyKind::kMvd:
      return {dep.mvd().rel};
  }
  return {};
}

/// A throwaway workspace holding `rels` of `db`. Relations are sets, so no
/// append is rejected and slot i is tuple i of the source relation — the
/// workspace's witness indices address `db` directly.
InternedWorkspace WorkspaceOf(const Database& db,
                              const std::vector<RelId>& rels) {
  InternedWorkspace ws(db.scheme_ptr());
  for (RelId rel : rels) {
    if (ws.size(rel) == 0) ws.AppendRelation(db, rel);
  }
  return ws;
}

InternedWorkspace WorkspaceOf(const Database& db) {
  InternedWorkspace ws(db.scheme_ptr());
  ws.AppendDatabase(db);
  return ws;
}

/// --- Legacy engine --------------------------------------------------------
/// The original heap-Value hashing checks, kept verbatim in behavior as the
/// differential reference for the interned engine.

namespace legacy {

bool Satisfies(const Database& db, const Fd& fd) {
  const Relation& r = db.relation(fd.rel);
  std::unordered_map<Tuple, Tuple, TupleHash> lhs_to_rhs;
  lhs_to_rhs.reserve(r.size());
  for (const Tuple& t : r.tuples()) {
    Tuple key = ProjectTuple(t, fd.lhs);
    Tuple val = ProjectTuple(t, fd.rhs);
    auto [it, inserted] = lhs_to_rhs.emplace(std::move(key), val);
    if (!inserted && it->second != val) return false;
  }
  return true;
}

bool Satisfies(const Database& db, const Ind& ind) {
  const Relation& lhs = db.relation(ind.lhs_rel);
  const Relation& rhs = db.relation(ind.rhs_rel);
  std::unordered_set<Tuple, TupleHash> rhs_proj = rhs.ProjectSet(ind.rhs);
  for (const Tuple& t : lhs.tuples()) {
    if (rhs_proj.count(ProjectTuple(t, ind.lhs)) == 0) return false;
  }
  return true;
}

bool Satisfies(const Database& db, const Rd& rd) {
  const Relation& r = db.relation(rd.rel);
  for (const Tuple& t : r.tuples()) {
    if (ProjectTuple(t, rd.lhs) != ProjectTuple(t, rd.rhs)) return false;
  }
  return true;
}

// Shared EMVD checker on explicit X/Y/Z attribute sets.
bool SatisfiesEmvdImpl(const Relation& r, const std::vector<AttrId>& x,
                       const std::vector<AttrId>& y,
                       const std::vector<AttrId>& z) {
  // XY and XZ as de-duplicated sequences (sets in the paper).
  std::vector<AttrId> xy = AppendDistinctAttrs(x, y);
  std::vector<AttrId> xz = AppendDistinctAttrs(x, z);
  // All (t[XY], t[XZ]) pairs present in r, flattened into one tuple.
  std::unordered_set<Tuple, TupleHash> pairs;
  pairs.reserve(r.size());
  for (const Tuple& t : r.tuples()) {
    Tuple key = ProjectTuple(t, xy);
    Tuple xz_part = ProjectTuple(t, xz);
    key.insert(key.end(), xz_part.begin(), xz_part.end());
    pairs.insert(std::move(key));
  }
  // Group tuples by t[X].
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> groups;
  for (const Tuple& t : r.tuples()) {
    groups[ProjectTuple(t, x)].push_back(&t);
  }
  for (const auto& [key, members] : groups) {
    for (const Tuple* t1 : members) {
      Tuple t1_xy = ProjectTuple(*t1, xy);
      for (const Tuple* t2 : members) {
        Tuple need = t1_xy;
        Tuple t2_xz = ProjectTuple(*t2, xz);
        need.insert(need.end(), t2_xz.begin(), t2_xz.end());
        if (pairs.count(need) == 0) return false;
      }
    }
  }
  return true;
}

bool Satisfies(const Database& db, const Emvd& emvd) {
  return SatisfiesEmvdImpl(db.relation(emvd.rel), emvd.x, emvd.y, emvd.z);
}

bool Satisfies(const Database& db, const Mvd& mvd) {
  // X ->> Y is the EMVD X ->> Y | Z with Z = attrs - X - Y.
  return SatisfiesEmvdImpl(db.relation(mvd.rel), mvd.x, mvd.y,
                           MvdComplement(db.scheme(), mvd));
}

bool Satisfies(const Database& db, const Dependency& dep) {
  switch (dep.kind()) {
    case DependencyKind::kFd:
      return legacy::Satisfies(db, dep.fd());
    case DependencyKind::kInd:
      return legacy::Satisfies(db, dep.ind());
    case DependencyKind::kRd:
      return legacy::Satisfies(db, dep.rd());
    case DependencyKind::kEmvd:
      return legacy::Satisfies(db, dep.emvd());
    case DependencyKind::kMvd:
      return legacy::Satisfies(db, dep.mvd());
  }
  return false;
}

/// Legacy witness search; same scan order as the interned engine, so both
/// report identical offending tuple indices (differentially tested).
std::optional<Violation> FindViolation(const Database& db,
                                       const Dependency& dep) {
  if (legacy::Satisfies(db, dep)) return std::nullopt;
  const DatabaseScheme& scheme = db.scheme();
  Violation v;
  v.kind = dep.kind();
  switch (dep.kind()) {
    case DependencyKind::kFd: {
      const Fd& fd = dep.fd();
      const Relation& r = db.relation(fd.rel);
      v.rel = fd.rel;
      std::unordered_map<Tuple, std::size_t, TupleHash> first;
      for (std::size_t i = 0; i < r.tuples().size(); ++i) {
        const Tuple& t = r.tuples()[i];
        auto [it, inserted] = first.emplace(ProjectTuple(t, fd.lhs), i);
        if (!inserted) {
          const Tuple& rep = r.tuples()[it->second];
          if (ProjectTuple(rep, fd.rhs) != ProjectTuple(t, fd.rhs)) {
            v.tuple_indices = {it->second, i};
            v.tuples = {rep, t};
            v.description = StrCat(
                "FD ", dep.ToString(scheme), " violated by tuples ",
                TupleToString(rep), " and ", TupleToString(t));
            return v;
          }
        }
      }
      break;
    }
    case DependencyKind::kInd: {
      const Ind& ind = dep.ind();
      const Relation& lhs = db.relation(ind.lhs_rel);
      v.rel = ind.lhs_rel;
      std::unordered_set<Tuple, TupleHash> rhs_proj =
          db.relation(ind.rhs_rel).ProjectSet(ind.rhs);
      for (std::size_t i = 0; i < lhs.tuples().size(); ++i) {
        const Tuple& t = lhs.tuples()[i];
        Tuple p = ProjectTuple(t, ind.lhs);
        if (rhs_proj.count(p) == 0) {
          v.tuple_indices = {i};
          v.tuples = {t};
          v.description = StrCat("IND ", dep.ToString(scheme),
                                 " violated: projection ", TupleToString(p),
                                 " of tuple ", TupleToString(t),
                                 " has no counterpart");
          return v;
        }
      }
      break;
    }
    case DependencyKind::kRd: {
      const Rd& rd = dep.rd();
      const Relation& r = db.relation(rd.rel);
      v.rel = rd.rel;
      for (std::size_t i = 0; i < r.tuples().size(); ++i) {
        const Tuple& t = r.tuples()[i];
        if (ProjectTuple(t, rd.lhs) != ProjectTuple(t, rd.rhs)) {
          v.tuple_indices = {i};
          v.tuples = {t};
          v.description = StrCat("RD ", dep.ToString(scheme),
                                 " violated by tuple ", TupleToString(t));
          return v;
        }
      }
      break;
    }
    case DependencyKind::kEmvd:
    case DependencyKind::kMvd: {
      // Same witness as the interned engine's FindEmvdViolation: the
      // first slot pair (i, j) in the same X-group whose (XY, XZ)
      // combination no tuple witnesses, in the identical scan order.
      const std::vector<AttrId>& x =
          dep.is_emvd() ? dep.emvd().x : dep.mvd().x;
      const std::vector<AttrId>& y =
          dep.is_emvd() ? dep.emvd().y : dep.mvd().y;
      std::vector<AttrId> z = dep.is_emvd()
                                  ? dep.emvd().z
                                  : MvdComplement(scheme, dep.mvd());
      v.rel = dep.is_emvd() ? dep.emvd().rel : dep.mvd().rel;
      const Relation& r = db.relation(v.rel);
      std::vector<AttrId> xy = AppendDistinctAttrs(x, y);
      std::vector<AttrId> xz = AppendDistinctAttrs(x, z);
      std::unordered_set<Tuple, TupleHash> pairs;
      pairs.reserve(r.size());
      for (const Tuple& t : r.tuples()) {
        Tuple combo = ProjectTuple(t, xy);
        Tuple xz_part = ProjectTuple(t, xz);
        combo.insert(combo.end(), xz_part.begin(), xz_part.end());
        pairs.insert(std::move(combo));
      }
      std::vector<Tuple> proj_x, proj_xy, proj_xz;
      proj_x.reserve(r.size());
      proj_xy.reserve(r.size());
      proj_xz.reserve(r.size());
      for (const Tuple& t : r.tuples()) {
        proj_x.push_back(ProjectTuple(t, x));
        proj_xy.push_back(ProjectTuple(t, xy));
        proj_xz.push_back(ProjectTuple(t, xz));
      }
      for (std::size_t i = 0; i < r.tuples().size(); ++i) {
        for (std::size_t j = 0; j < r.tuples().size(); ++j) {
          if (proj_x[i] != proj_x[j]) continue;
          Tuple need = proj_xy[i];
          need.insert(need.end(), proj_xz[j].begin(), proj_xz[j].end());
          if (pairs.count(need) == 0) {
            v.tuple_indices = {i, j};
            v.tuples = {r.tuples()[i], r.tuples()[j]};
            v.description = StrCat(
                DependencyKindToString(dep.kind()), " ",
                dep.ToString(scheme), " violated: no tuple combines ",
                TupleToString(r.tuples()[i]), " with ",
                TupleToString(r.tuples()[j]));
            return v;
          }
        }
      }
      // Unreachable if Satisfies was false; mirrors the interned
      // fallback of an empty witness.
      v.description = StrCat(DependencyKindToString(dep.kind()), " ",
                             dep.ToString(scheme), " violated");
      return v;
    }
  }
  v.description = StrCat(dep.ToString(scheme), " violated");
  return v;
}

}  // namespace legacy

/// Renders an IdViolation into the user-facing Violation, materializing the
/// offending tuples from the interner.
Violation RenderViolation(const InternedWorkspace& ws, const Dependency& dep,
                          const IdViolation& idv) {
  const DatabaseScheme& scheme = ws.scheme();
  Violation v;
  v.kind = dep.kind();
  v.rel = idv.rel;
  v.tuple_indices.assign(idv.tuple_indices.begin(), idv.tuple_indices.end());
  for (std::uint32_t idx : idv.tuple_indices) {
    IdRow it = ws.tuple(idv.rel, idx);
    Tuple t;
    t.reserve(it.size());
    for (ValueId id : it) t.push_back(ws.interner().value(id));
    v.tuples.push_back(std::move(t));
  }
  switch (dep.kind()) {
    case DependencyKind::kFd:
      v.description = StrCat("FD ", dep.ToString(scheme),
                             " violated by tuples ",
                             TupleToString(v.tuples[0]), " and ",
                             TupleToString(v.tuples[1]));
      break;
    case DependencyKind::kInd:
      v.description =
          StrCat("IND ", dep.ToString(scheme), " violated: projection ",
                 TupleToString(ProjectTuple(v.tuples[0], dep.ind().lhs)),
                 " of tuple ", TupleToString(v.tuples[0]),
                 " has no counterpart");
      break;
    case DependencyKind::kRd:
      v.description = StrCat("RD ", dep.ToString(scheme),
                             " violated by tuple ",
                             TupleToString(v.tuples[0]));
      break;
    case DependencyKind::kEmvd:
    case DependencyKind::kMvd:
      if (v.tuples.size() == 2) {
        v.description = StrCat(
            DependencyKindToString(dep.kind()), " ", dep.ToString(scheme),
            " violated: no tuple combines ", TupleToString(v.tuples[0]),
            " with ", TupleToString(v.tuples[1]));
      } else {
        v.description = StrCat(DependencyKindToString(dep.kind()), " ",
                               dep.ToString(scheme), " violated");
      }
      break;
  }
  return v;
}

std::optional<Violation> FindViolationIn(const InternedWorkspace& ws,
                                         const Dependency& dep) {
  std::optional<IdViolation> idv = ws.FindViolation(dep);
  if (!idv.has_value()) return std::nullopt;
  return RenderViolation(ws, dep, *idv);
}

}  // namespace

bool Satisfies(const Database& db, const Fd& fd) {
  return WorkspaceOf(db, {fd.rel}).Satisfies(fd);
}

bool Satisfies(const Database& db, const Ind& ind) {
  return WorkspaceOf(db, {ind.lhs_rel, ind.rhs_rel}).Satisfies(ind);
}

bool Satisfies(const Database& db, const Rd& rd) {
  return WorkspaceOf(db, {rd.rel}).Satisfies(rd);
}

bool Satisfies(const Database& db, const Emvd& emvd) {
  return WorkspaceOf(db, {emvd.rel}).Satisfies(emvd);
}

bool Satisfies(const Database& db, const Mvd& mvd) {
  return WorkspaceOf(db, {mvd.rel}).Satisfies(mvd);
}

bool Satisfies(const Database& db, const Dependency& dep,
               const SatisfiesOptions& options) {
  if (options.engine == SatisfiesEngine::kLegacy) {
    return legacy::Satisfies(db, dep);
  }
  return WorkspaceOf(db, InvolvedRels(dep)).Satisfies(dep);
}

bool SatisfiesAll(const Database& db, const std::vector<Dependency>& deps,
                  const SatisfiesOptions& options) {
  if (options.engine == SatisfiesEngine::kLegacy) {
    for (const Dependency& dep : deps) {
      if (!legacy::Satisfies(db, dep)) return false;
    }
    return true;
  }
  return WorkspaceOf(db).SatisfiesAll(deps);
}

std::vector<Dependency> SatisfiedSubset(const Database& db,
                                        const std::vector<Dependency>& deps,
                                        const SatisfiesOptions& options) {
  std::vector<Dependency> out;
  if (options.engine == SatisfiesEngine::kLegacy) {
    for (const Dependency& dep : deps) {
      if (legacy::Satisfies(db, dep)) out.push_back(dep);
    }
    return out;
  }
  InternedWorkspace ws = WorkspaceOf(db);
  for (const Dependency& dep : deps) {
    if (ws.Satisfies(dep)) out.push_back(dep);
  }
  return out;
}

std::optional<Violation> FindViolation(const Database& db,
                                       const Dependency& dep,
                                       const SatisfiesOptions& options) {
  if (options.engine == SatisfiesEngine::kLegacy) {
    return legacy::FindViolation(db, dep);
  }
  return FindViolationIn(WorkspaceOf(db, InvolvedRels(dep)), dep);
}

std::optional<Violation> FindFirstViolation(
    const Database& db, const std::vector<Dependency>& deps,
    const SatisfiesOptions& options) {
  if (options.engine == SatisfiesEngine::kLegacy) {
    for (std::size_t i = 0; i < deps.size(); ++i) {
      std::optional<Violation> v = legacy::FindViolation(db, deps[i]);
      if (v.has_value()) {
        v->dep_index = i;
        return v;
      }
    }
    return std::nullopt;
  }
  InternedWorkspace ws = WorkspaceOf(db);
  for (std::size_t i = 0; i < deps.size(); ++i) {
    std::optional<Violation> v = FindViolationIn(ws, deps[i]);
    if (v.has_value()) {
      v->dep_index = i;
      return v;
    }
  }
  return std::nullopt;
}

std::optional<std::string> ObeysExactly(
    const Database& db, const std::vector<Dependency>& universe,
    const std::vector<Dependency>& expected,
    const SatisfiesOptions& options) {
  if (options.engine == SatisfiesEngine::kLegacy) {
    std::unordered_set<Dependency, DependencyHash> expected_set(
        expected.begin(), expected.end());
    for (const Dependency& dep : universe) {
      bool holds = legacy::Satisfies(db, dep);
      bool should = expected_set.count(dep) > 0;
      if (holds && !should) {
        return StrCat("database obeys ", dep.ToString(db.scheme()),
                      " which is outside the expected set");
      }
      if (!holds && should) {
        return StrCat("database violates ", dep.ToString(db.scheme()),
                      " which is inside the expected set");
      }
    }
    return std::nullopt;
  }
  return ObeysExactly(WorkspaceOf(db), universe, expected);
}

std::optional<std::string> ObeysExactly(
    const InternedWorkspace& ws, const std::vector<Dependency>& universe,
    const std::vector<Dependency>& expected) {
  std::unordered_set<Dependency, DependencyHash> expected_set(
      expected.begin(), expected.end());
  for (const Dependency& dep : universe) {
    bool holds = ws.Satisfies(dep);
    bool should = expected_set.count(dep) > 0;
    if (holds && !should) {
      return StrCat("database obeys ", dep.ToString(ws.scheme()),
                    " which is outside the expected set");
    }
    if (!holds && should) {
      return StrCat("database violates ", dep.ToString(ws.scheme()),
                    " which is inside the expected set");
    }
  }
  return std::nullopt;
}

}  // namespace ccfp
