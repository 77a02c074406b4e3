#ifndef CCFP_TESTS_REFERENCE_ARMSTRONG_H_
#define CCFP_TESTS_REFERENCE_ARMSTRONG_H_

#include <vector>

#include "armstrong/builder.h"
#include "axiom/oracle.h"
#include "core/dependency.h"
#include "util/status.h"

namespace ccfp::reference {

/// The re-chase-per-round Armstrong builder: each repair round appends the
/// whole heap seed database into a fresh workspace (re-interning it),
/// runs a fresh `WorkspaceChase` on it and verifies the chased workspace
/// by full sweep. Same failure modes as `BuildArmstrongDatabase`, and
/// also verified-exact, but its tuples may differ (the library builder
/// keeps chase consequences across rounds). `workspace_stats` stays
/// zero.
Result<ArmstrongReport> BuildArmstrongDatabaseLegacy(
    SchemePtr scheme, const std::vector<Fd>& fds,
    const std::vector<Ind>& inds, const std::vector<Dependency>& universe,
    const ImplicationOracle& oracle,
    const ArmstrongBuildOptions& options = {});

}  // namespace ccfp::reference

#endif  // CCFP_TESTS_REFERENCE_ARMSTRONG_H_
