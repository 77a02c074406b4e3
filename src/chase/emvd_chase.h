#ifndef CCFP_CHASE_EMVD_CHASE_H_
#define CCFP_CHASE_EMVD_CHASE_H_

#include <cstdint>
#include <vector>

#include "core/database.h"
#include "core/dependency.h"
#include "core/workspace.h"
#include "util/status.h"

namespace ccfp {

/// Bounded chase for embedded multivalued dependencies (Section 5 context:
/// the Sagiv–Walecka family). EMVDs are embedded tuple-generating
/// dependencies, so the chase may not terminate; all entry points are
/// budgeted and can return ResourceExhausted ("unknown").

struct EmvdChaseOptions {
  std::uint64_t max_tuples = 1u << 14;
  std::uint64_t max_rounds = 64;
};

/// Saturates `db` under the EMVDs: for every violated pair (t1, t2) adds
/// the witness tuple t3 with t3[XY] = t1[XY], t3[XZ] = t2[XZ] and fresh
/// labeled nulls elsewhere. Returns tuples added, or ResourceExhausted; on
/// ResourceExhausted `db` holds the partial chase so far.
///
/// Runs in id-space on an InternedWorkspace (core/workspace.h): XY/XZ
/// projections are dense partition group ids maintained incrementally
/// across rounds (the chase is append-only, so partitions only extend),
/// the witnessed-pair set is packed 64-bit group-id pairs, and fresh
/// labeled nulls are new ValueIds — no heap Tuple is built or hashed per
/// pair. The heap-Value reference in tests/reference/emvd_chase.h produces
/// identical databases (same tuples, same null labels, same order) and hits
/// budget boundaries at the same point.
Result<std::uint64_t> EmvdChaseFixpoint(Database& db,
                                        const std::vector<Emvd>& sigma,
                                        const EmvdChaseOptions& options = {});

/// The id-space core: saturates the tuples already in `ws` (and any the
/// chase adds) under the EMVDs, entirely in id-space. The workspace is
/// caller-owned, so repeated chases over a growing instance — or a chase
/// followed by Satisfies probes — reuse the same interner and partitions.
/// Requires a workspace with no pending merges (the EMVD chase itself
/// never merges). Returns tuples added, or ResourceExhausted with the
/// partial chase left in `ws`.
Result<std::uint64_t> EmvdChaseFixpointOnWorkspace(
    InternedWorkspace& ws, const std::vector<Emvd>& sigma,
    const EmvdChaseOptions& options = {});

/// Semi-decides Sigma |= target by chasing the canonical two-tuple database
/// of the target (tuples sharing labeled nulls exactly on target.x). Exact
/// when the chase reaches a fixpoint; ResourceExhausted otherwise.
Result<bool> EmvdChaseImplies(SchemePtr scheme,
                              const std::vector<Emvd>& sigma,
                              const Emvd& target,
                              const EmvdChaseOptions& options = {});

}  // namespace ccfp

#endif  // CCFP_CHASE_EMVD_CHASE_H_
