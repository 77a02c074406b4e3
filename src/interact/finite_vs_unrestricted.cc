#include "interact/finite_vs_unrestricted.h"

#include <algorithm>

#include "ind/implication.h"
#include "interact/unary_finite.h"

namespace ccfp {

namespace {

bool AllUnary(const std::vector<Fd>& fds, const std::vector<Ind>& inds,
              const Dependency& target) {
  for (const Fd& fd : fds) {
    if (fd.lhs.size() != 1 || fd.rhs.size() != 1) return false;
  }
  for (const Ind& ind : inds) {
    if (ind.width() != 1) return false;
  }
  if (target.is_fd()) {
    return target.fd().lhs.size() == 1 && target.fd().rhs.size() == 1;
  }
  if (target.is_ind()) return target.ind().width() == 1;
  return false;
}

}  // namespace

FiniteVsUnrestricted CompareImplication(SchemePtr scheme,
                                        const std::vector<Fd>& fds,
                                        const std::vector<Ind>& inds,
                                        const Dependency& target,
                                        const Budget& budget) {
  FiniteVsUnrestricted out;

  // --- Unrestricted implication -------------------------------------------
  if (fds.empty() && target.is_ind()) {
    // Pure-IND instance: the Corollary 3.2 procedure is exact (and by
    // Theorem 3.1 also answers finite implication).
    IndImplication engine(scheme, inds);
    Result<IndDecision> decision = engine.Decide(target.ind());
    if (decision.ok()) {
      out.unrestricted = decision->implied ? ImplicationVerdict::kImplied
                                           : ImplicationVerdict::kNotImplied;
      out.unrestricted_engine = "ind-bfs (Corollary 3.2)";
      out.finite = out.unrestricted;  // Theorem 3.1: |= equals |=fin for INDs
      out.finite_engine = "ind-bfs (Theorem 3.1 equivalence)";
      return out;
    }
    out.unrestricted_engine = "ind-bfs (budget exhausted)";
  } else if (AllUnary(fds, inds, target) &&
             std::none_of(fds.begin(), fds.end(),
                          [](const Fd& fd) { return fd.lhs.empty(); })) {
    // Unary fragment: KCV — FDs and INDs do not interact unrestrictedly.
    UnaryUnrestrictedImplication engine(scheme, fds, inds);
    out.unrestricted = engine.Implies(target)
                           ? ImplicationVerdict::kImplied
                           : ImplicationVerdict::kNotImplied;
    out.unrestricted_engine = "unary non-interaction (KCV)";
  } else {
    Result<bool> chase = ChaseImplies(scheme, fds, inds, target,
                                      ChaseOptions::FromBudget(budget));
    if (chase.ok()) {
      out.unrestricted = *chase ? ImplicationVerdict::kImplied
                                : ImplicationVerdict::kNotImplied;
      out.unrestricted_engine = "fd+ind chase (universal model)";
    } else {
      out.unrestricted_engine = "fd+ind chase (budget exhausted)";
    }
  }

  // --- Finite implication --------------------------------------------------
  if (AllUnary(fds, inds, target)) {
    UnaryFiniteImplication engine(scheme, fds, inds);
    out.finite = engine.Implies(target) ? ImplicationVerdict::kImplied
                                        : ImplicationVerdict::kNotImplied;
    out.finite_engine = "unary counting closure (KCV rules)";
  } else if (out.unrestricted == ImplicationVerdict::kImplied) {
    // |= implies |=fin always.
    out.finite = ImplicationVerdict::kImplied;
    out.finite_engine = "inherited from unrestricted verdict";
  } else {
    out.finite_engine = "no exact finite engine for this fragment";
  }
  return out;
}

}  // namespace ccfp
