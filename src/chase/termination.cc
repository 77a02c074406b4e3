#include "chase/termination.h"

#include <algorithm>
#include <cstddef>
#include <deque>

#include "util/strings.h"

namespace ccfp {

std::string SpecialEdgeCycle::ToString(const DatabaseScheme& scheme) const {
  auto name = [&](const Position& p) {
    const RelationScheme& rel = scheme.relation(p.rel);
    return StrCat(rel.name(), ".", rel.attr_name(p.attr));
  };
  std::string out;
  for (const PositionEdge& e : edges) {
    if (out.empty()) out = name(e.from);
    out += StrCat(e.special ? " => " : " -> ", name(e.to));
  }
  return out;
}

std::optional<SpecialEdgeCycle> FindSpecialEdgeCycle(
    const DatabaseScheme& scheme, const std::vector<Ind>& inds, RelId seed) {
  // Relations a chase from `seed` can fill: IND lhs -> rhs reachability.
  std::vector<bool> reached(scheme.size(), false);
  reached[seed] = true;
  for (bool grew = true; grew;) {
    grew = false;
    for (const Ind& ind : inds) {
      if (reached[ind.lhs_rel] && !reached[ind.rhs_rel]) {
        reached[ind.rhs_rel] = grew = true;
      }
    }
  }

  // The position graph over the reached relations, as an edge list.
  std::vector<PositionEdge> edges;
  for (const Ind& ind : inds) {
    if (!reached[ind.lhs_rel]) continue;
    std::size_t rhs_arity = scheme.relation(ind.rhs_rel).arity();
    for (std::size_t i = 0; i < ind.width(); ++i) {
      Position from{ind.lhs_rel, ind.lhs[i]};
      edges.push_back({from, {ind.rhs_rel, ind.rhs[i]}, false});
      for (AttrId a = 0; a < rhs_arity; ++a) {
        if (std::find(ind.rhs.begin(), ind.rhs.end(), a) == ind.rhs.end()) {
          edges.push_back({from, {ind.rhs_rel, a}, true});
        }
      }
    }
  }

  // A special edge u => v lies on a cycle iff u is reachable from v: BFS
  // from v, remembering the edge that first reached each position.
  std::vector<std::size_t> offset(scheme.size() + 1, 0);
  for (RelId r = 0; r < scheme.size(); ++r) {
    offset[r + 1] = offset[r] + scheme.relation(r).arity();
  }
  auto id = [&](const Position& p) { return offset[p.rel] + p.attr; };
  constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
  for (const PositionEdge& special : edges) {
    if (!special.special) continue;
    std::vector<std::size_t> via(offset.back(), kUnseen);
    std::deque<std::size_t> frontier{id(special.to)};
    via[id(special.to)] = edges.size();  // the root: reached by no edge
    while (!frontier.empty() && via[id(special.from)] == kUnseen) {
      std::size_t at = frontier.front();
      frontier.pop_front();
      for (std::size_t e = 0; e < edges.size(); ++e) {
        std::size_t next = id(edges[e].to);
        if (id(edges[e].from) != at || via[next] != kUnseen) continue;
        via[next] = e;
        frontier.push_back(next);
      }
    }
    if (via[id(special.from)] == kUnseen) continue;
    // Walk the BFS tree back from u to v, then close with u => v.
    SpecialEdgeCycle cycle;
    for (std::size_t at = id(special.from); at != id(special.to);) {
      const PositionEdge& e = edges[via[at]];
      cycle.edges.push_back(e);
      at = id(e.from);
    }
    cycle.edges.push_back(special);
    std::reverse(cycle.edges.begin(), cycle.edges.end());
    return cycle;
  }
  return std::nullopt;
}

}  // namespace ccfp
