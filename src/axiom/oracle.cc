#include "axiom/oracle.h"

#include "core/satisfies.h"
#include "fd/closure.h"
#include "ind/implication.h"
#include "interact/unary_finite.h"
#include "util/strings.h"

namespace ccfp {

ImplicationVerdict FdOracle::Implies(const std::vector<Dependency>& premises,
                                     const Dependency& conclusion) const {
  if (!conclusion.is_fd()) return ImplicationVerdict::kUnknown;
  std::vector<Fd> fds;
  for (const Dependency& p : premises) {
    if (!p.is_fd()) return ImplicationVerdict::kUnknown;
    fds.push_back(p.fd());
  }
  return FdImplies(*scheme_, fds, conclusion.fd())
             ? ImplicationVerdict::kImplied
             : ImplicationVerdict::kNotImplied;
}

ImplicationVerdict IndOracle::Implies(const std::vector<Dependency>& premises,
                                      const Dependency& conclusion) const {
  if (!conclusion.is_ind()) return ImplicationVerdict::kUnknown;
  std::vector<Ind> inds;
  for (const Dependency& p : premises) {
    if (!p.is_ind()) return ImplicationVerdict::kUnknown;
    inds.push_back(p.ind());
  }
  IndImplication engine(scheme_, std::move(inds));
  Result<IndDecision> decision = engine.Decide(conclusion.ind());
  if (!decision.ok()) return ImplicationVerdict::kUnknown;
  return decision->implied ? ImplicationVerdict::kImplied
                           : ImplicationVerdict::kNotImplied;
}

namespace {

// Splits premises into unary FDs and unary INDs, ignoring trivial
// dependencies of any kind. Returns false if an unsupported (non-trivial,
// non-unary-FD/IND) premise is present.
bool SplitUnaryPremises(const DatabaseScheme& scheme,
                        const std::vector<Dependency>& premises,
                        std::vector<Fd>& fds, std::vector<Ind>& inds) {
  for (const Dependency& p : premises) {
    if (IsTrivial(scheme, p)) continue;
    if (p.is_fd() && p.fd().lhs.size() == 1 && p.fd().rhs.size() == 1) {
      fds.push_back(p.fd());
    } else if (p.is_ind() && p.ind().width() == 1) {
      inds.push_back(p.ind());
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

ImplicationVerdict UnaryFiniteOracle::Implies(
    const std::vector<Dependency>& premises,
    const Dependency& conclusion) const {
  if (IsTrivial(*scheme_, conclusion)) return ImplicationVerdict::kImplied;
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  if (!SplitUnaryPremises(*scheme_, premises, fds, inds)) {
    return ImplicationVerdict::kUnknown;
  }
  bool unary_fd_conclusion = conclusion.is_fd() &&
                             conclusion.fd().lhs.size() == 1 &&
                             conclusion.fd().rhs.size() == 1;
  bool unary_ind_conclusion =
      conclusion.is_ind() && conclusion.ind().width() == 1;
  if (!unary_fd_conclusion && !unary_ind_conclusion) {
    return ImplicationVerdict::kUnknown;
  }
  UnaryFiniteImplication engine(scheme_, fds, inds);
  return engine.Implies(conclusion) ? ImplicationVerdict::kImplied
                                    : ImplicationVerdict::kNotImplied;
}

ImplicationVerdict ChaseOracle::Implies(
    const std::vector<Dependency>& premises,
    const Dependency& conclusion) const {
  if (IsTrivial(*scheme_, conclusion)) return ImplicationVerdict::kImplied;
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  for (const Dependency& p : premises) {
    if (IsTrivial(*scheme_, p)) continue;
    if (p.is_fd()) {
      fds.push_back(p.fd());
    } else if (p.is_ind()) {
      inds.push_back(p.ind());
    } else {
      return ImplicationVerdict::kUnknown;  // RD/EMVD premises unsupported
    }
  }
  Result<ChaseImplication> chased =
      ChaseImplies(scheme_, fds, inds, conclusion, Budget());
  if (!chased.ok()) return ImplicationVerdict::kUnknown;
  return chased->verdict;
}

ImplicationVerdict CounterexampleOracle::Implies(
    const std::vector<Dependency>& premises,
    const Dependency& conclusion) const {
  for (const InternedWorkspace& ws : witnesses_) {
    if (ws.Satisfies(conclusion)) continue;
    if (ws.SatisfiesAll(premises)) return ImplicationVerdict::kNotImplied;
  }
  return ImplicationVerdict::kUnknown;
}

ImplicationVerdict ChainOracle::Implies(
    const std::vector<Dependency>& premises,
    const Dependency& conclusion) const {
  for (const ImplicationOracle* child : children_) {
    ImplicationVerdict verdict = child->Implies(premises, conclusion);
    if (verdict != ImplicationVerdict::kUnknown) return verdict;
  }
  return ImplicationVerdict::kUnknown;
}

std::string ChainOracle::name() const {
  return StrCat("chain(",
                JoinMapped(children_, " -> ",
                           [](const ImplicationOracle* o) {
                             return o->name();
                           }),
                ")");
}

}  // namespace ccfp
