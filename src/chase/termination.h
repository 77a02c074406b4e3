#ifndef CCFP_CHASE_TERMINATION_H_
#define CCFP_CHASE_TERMINATION_H_

#include <optional>
#include <string>
#include <vector>

#include "core/dependency.h"
#include "core/schema.h"

namespace ccfp {

/// A static test for chase termination: weak acyclicity of the IND
/// position graph (Fagin, Kolaitis, Miller, Popa, "Data exchange:
/// semantics and query answering", ICDT 2003). The nodes are the
/// positions R.A of the scheme; an IND R[X] <= S[Y] adds
///
///   * a regular edge R.X_i -> S.Y_i (a value is copied), and
///   * a special edge R.X_i => S.a for every a not in Y (a fresh null is
///     created in the presence of R.X_i's value).
///
/// The IND set is weakly acyclic iff no cycle goes through a special
/// edge; then every chase sequence terminates, whatever the FDs do (the
/// termination proof covers tgds and egds together). Only
/// relations reachable from the seed relation through IND lhs -> rhs
/// edges can ever hold a tuple, so only their INDs enter the graph.

/// One column of one relation.
struct Position {
  RelId rel = 0;
  AttrId attr = 0;
};

/// One edge of the position graph.
struct PositionEdge {
  Position from;
  Position to;
  bool special = false;
};

/// A cycle through a special edge, edge by edge; the first edge is
/// special and each edge starts where the previous one ended.
struct SpecialEdgeCycle {
  std::vector<PositionEdge> edges;

  /// "R.C => R.B -> R.C" ("=>" marks a special edge).
  std::string ToString(const DatabaseScheme& scheme) const;
};

/// A special-edge cycle among the INDs whose relations a chase seeded in
/// relation `seed` can reach, or nullopt when they are weakly acyclic (so
/// the chase of any database over `seed` terminates).
std::optional<SpecialEdgeCycle> FindSpecialEdgeCycle(
    const DatabaseScheme& scheme, const std::vector<Ind>& inds, RelId seed);

}  // namespace ccfp

#endif  // CCFP_CHASE_TERMINATION_H_
