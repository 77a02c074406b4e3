#ifndef CCFP_TESTS_REFERENCE_EMVD_CHASE_H_
#define CCFP_TESTS_REFERENCE_EMVD_CHASE_H_

#include <cstdint>
#include <vector>

#include "chase/emvd_chase.h"
#include "core/database.h"
#include "core/dependency.h"
#include "util/status.h"

namespace ccfp::reference {

/// The original heap-Value EMVD chase: per candidate pair it builds and
/// hashes projected Tuple keys. Same delta-driven round structure and the
/// same fresh-null numbering as `EmvdChaseFixpoint`, so both produce
/// identical databases and hit budget boundaries at the same point; on
/// ResourceExhausted `db` holds the partial chase so far
/// (tests/emvd_chase_property_test.cc).
Result<std::uint64_t> LegacyEmvdChaseFixpoint(
    Database& db, const std::vector<Emvd>& sigma,
    const EmvdChaseOptions& options = {});

/// `EmvdChaseImplies` on the heap-Value engine: chase the canonical
/// two-tuple database of `target` and test the target at the fixpoint.
Result<bool> LegacyEmvdChaseImplies(SchemePtr scheme,
                                    const std::vector<Emvd>& sigma,
                                    const Emvd& target,
                                    const EmvdChaseOptions& options = {});

}  // namespace ccfp::reference

#endif  // CCFP_TESTS_REFERENCE_EMVD_CHASE_H_
