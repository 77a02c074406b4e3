#ifndef CCFP_TESTS_REFERENCE_CHASE_H_
#define CCFP_TESTS_REFERENCE_CHASE_H_

#include <vector>

#include "chase/chase.h"
#include "core/database.h"
#include "core/dependency.h"
#include "util/status.h"

namespace ccfp::reference {

/// The original FD+IND chase: every pass rebuilds its indexes and rescans
/// every tuple, O(passes x deps x tuples). It follows the library engine's
/// rule-application strategy (FD fixpoint, then one IND pass in
/// declaration order), so `chase.Run` and this function agree on outcome,
/// counters, fresh-null numbering and the chased database
/// (tests/chase_property_test.cc). Meters `max_steps` and `max_tuples`
/// only; `max_bytes` and the deadline are ignored.
Result<ChaseResult> NaiveChase(const Chase& chase, Database initial,
                               const ChaseOptions& options = {});

/// Implication by chase on the naive engine: chase the canonical seed of
/// `target` and test the target at the fixpoint (the reference for
/// `ChaseImplies`, whose verdict is kImplied iff this returns true).
Result<bool> NaiveChaseImplies(SchemePtr scheme, const std::vector<Fd>& fds,
                               const std::vector<Ind>& inds,
                               const Dependency& target,
                               const ChaseOptions& options = {});

}  // namespace ccfp::reference

#endif  // CCFP_TESTS_REFERENCE_CHASE_H_
