#ifndef CCFP_TESTS_REFERENCE_MINE_H_
#define CCFP_TESTS_REFERENCE_MINE_H_

#include <vector>

#include "core/dependency.h"
#include "core/workspace.h"
#include "mine/discovery.h"

namespace ccfp::reference {

/// The per-candidate FD miner: the same candidates, in the same order,
/// with the same minimality filter as `MineFds`, but each decided by
/// `InternedWorkspace::Satisfies`, a refinement sweep over every slot of
/// the relation. `MineFds` decides by partition group counts instead and
/// must return exactly this list (tests/mine_property_test.cc).
std::vector<Fd> MineFdsSweep(const InternedWorkspace& ws, RelId rel,
                             const FdMiningOptions& options = {});

}  // namespace ccfp::reference

#endif  // CCFP_TESTS_REFERENCE_MINE_H_
