#ifndef CCFP_MINE_DISCOVERY_H_
#define CCFP_MINE_DISCOVERY_H_

#include <cstdint>
#include <vector>

#include "core/database.h"
#include "core/dependency.h"
#include "core/workspace.h"

namespace ccfp {

/// Dependency discovery ("profiling"): enumerate the FDs / INDs / RDs that
/// a concrete database satisfies. This is the inverse direction of the
/// paper's implication problem and the bridge to modern profiling tools
/// (TANE-style FD discovery, SPIDER-style IND discovery) — implemented
/// here by direct model checking against a bounded candidate universe,
/// which is exact and adequate for design-time schemas.
///
/// FDs are decided by projection sizes, the paper's own reading of a
/// dependency: r satisfies X -> A exactly when |r[X]| == |r[XA]| (X empty:
/// when A takes at most one value). Both sizes are the `alive_groups` of
/// cached workspace partitions, by X and by sorted(X u {A}), which the
/// workspace keeps exact under appends and merges. So a candidate costs
/// two counter reads, not a sweep of the relation, and re-mining after an
/// append costs extending those partitions over the appended rows.
///
/// Every miner has two entry points: a `Database` convenience overload
/// that interns into a throwaway workspace, and an `InternedWorkspace`
/// overload for callers probing the same data repeatedly — mining FDs,
/// then INDs, then RDs (or re-mining after appends) over one caller-owned
/// workspace shares every cached projection partition across the calls.

struct FdMiningOptions {
  /// Maximum size of a candidate left-hand side.
  std::size_t max_lhs = 2;
  /// Drop non-minimal results (an FD whose lhs strictly contains the lhs
  /// of another mined FD with the same rhs).
  bool minimal_only = true;
  /// Include empty-lhs ("constant column") FDs.
  bool include_constants = false;
};

/// All FDs with singleton rhs over `rel` satisfied by `db`, with sorted
/// lhs, excluding trivial ones.
std::vector<Fd> MineFds(const Database& db, RelId rel,
                        const FdMiningOptions& options = {});
std::vector<Fd> MineFds(const InternedWorkspace& ws, RelId rel,
                        const FdMiningOptions& options = {});

struct IndMiningOptions {
  /// Maximum IND width to consider (beware: candidates grow like the
  /// permutation counts of Section 3).
  std::size_t max_width = 1;
  /// Skip candidates whose left-hand relation is empty (they hold
  /// vacuously and flood the output).
  bool skip_vacuous = true;
};

/// All nontrivial INDs of width <= max_width satisfied by `db`.
std::vector<Ind> MineInds(const Database& db,
                          const IndMiningOptions& options = {});
std::vector<Ind> MineInds(const InternedWorkspace& ws,
                          const IndMiningOptions& options = {});

/// All nontrivial unary RDs satisfied by `db` (empty relations are skipped:
/// their RDs hold vacuously).
std::vector<Rd> MineRds(const Database& db);
std::vector<Rd> MineRds(const InternedWorkspace& ws);

}  // namespace ccfp

#endif  // CCFP_MINE_DISCOVERY_H_
