#ifndef CCFP_INTERACT_FINITE_VS_UNRESTRICTED_H_
#define CCFP_INTERACT_FINITE_VS_UNRESTRICTED_H_

#include <string>
#include <vector>

#include "chase/chase.h"
#include "core/dependency.h"
#include "core/schema.h"
#include "core/verdict.h"
#include "util/budget.h"

namespace ccfp {

/// Side-by-side answers for |= and |=fin, exhibiting the paper's Section 4
/// phenomenon that the two notions differ for FDs and INDs taken together.
struct FiniteVsUnrestricted {
  ImplicationVerdict unrestricted = ImplicationVerdict::kUnknown;
  ImplicationVerdict finite = ImplicationVerdict::kUnknown;
  /// Which engines produced the verdicts (for reporting).
  std::string unrestricted_engine;
  std::string finite_engine;
};

/// Compares Sigma |= target against Sigma |=fin target using the best
/// available engines:
///   * unrestricted: exact IND engine when Sigma and target are pure INDs;
///     otherwise the (budgeted) chase semi-decision;
///   * finite: the unary counting engine when everything is unary;
///     otherwise inherited from the unrestricted verdict when that verdict
///     is kImplied (|= implies |=fin — Section 2 of the paper).
/// The chase stage maps Budget::steps/tuples/bytes/deadline onto its caps
/// (ChaseOptions::FromBudget).
FiniteVsUnrestricted CompareImplication(SchemePtr scheme,
                                        const std::vector<Fd>& fds,
                                        const std::vector<Ind>& inds,
                                        const Dependency& target,
                                        const Budget& budget = Budget());

}  // namespace ccfp

#endif  // CCFP_INTERACT_FINITE_VS_UNRESTRICTED_H_
