#ifndef CCFP_AXIOM_ORACLE_H_
#define CCFP_AXIOM_ORACLE_H_

#include <memory>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "core/database.h"
#include "core/dependency.h"
#include "core/schema.h"
#include "core/workspace.h"

namespace ccfp {

/// Answers "premises |= conclusion?" for the semantics it implements
/// (unrestricted or finite — each concrete oracle documents which). The
/// Theorem 5.1 machinery (k-ary closure) is parameterized by an oracle so
/// the same fixpoint code serves FDs, INDs, finite and unrestricted
/// implication, and sampled approximations.
class ImplicationOracle {
 public:
  virtual ~ImplicationOracle() = default;

  virtual ImplicationVerdict Implies(
      const std::vector<Dependency>& premises,
      const Dependency& conclusion) const = 0;

  virtual std::string name() const = 0;
};

/// Exact oracle for pure-FD instances (unrestricted = finite for FDs).
/// kUnknown on anything containing a non-FD.
class FdOracle : public ImplicationOracle {
 public:
  explicit FdOracle(SchemePtr scheme) : scheme_(std::move(scheme)) {}
  ImplicationVerdict Implies(const std::vector<Dependency>& premises,
                             const Dependency& conclusion) const override;
  std::string name() const override { return "fd-closure"; }

 private:
  SchemePtr scheme_;
};

/// Exact oracle for pure-IND instances (unrestricted = finite for INDs,
/// Theorem 3.1). kUnknown on anything containing a non-IND, or on budget
/// exhaustion.
class IndOracle : public ImplicationOracle {
 public:
  explicit IndOracle(SchemePtr scheme) : scheme_(std::move(scheme)) {}
  ImplicationVerdict Implies(const std::vector<Dependency>& premises,
                             const Dependency& conclusion) const override;
  std::string name() const override { return "ind-bfs"; }

 private:
  SchemePtr scheme_;
};

/// Exact *finite*-implication oracle for unary FDs + unary INDs (the KCV
/// counting closure). Trivial RD premises are ignored; any other RD/EMVD or
/// non-unary dependency yields kUnknown — except that a trivial conclusion
/// of any kind is always kImplied.
class UnaryFiniteOracle : public ImplicationOracle {
 public:
  explicit UnaryFiniteOracle(SchemePtr scheme) : scheme_(std::move(scheme)) {}
  ImplicationVerdict Implies(const std::vector<Dependency>& premises,
                             const Dependency& conclusion) const override;
  std::string name() const override { return "unary-finite-counting"; }

 private:
  SchemePtr scheme_;
};

/// Unrestricted-implication oracle via the FD+IND chase (semi-decision):
/// ChaseImplies under the default Budget(), so a kNotImplied rests on a
/// sigma-checked fixpoint; kUnknown on budget exhaustion or unsupported
/// premise kinds (trivial RD premises are ignored).
class ChaseOracle : public ImplicationOracle {
 public:
  explicit ChaseOracle(SchemePtr scheme) : scheme_(std::move(scheme)) {}
  ImplicationVerdict Implies(const std::vector<Dependency>& premises,
                             const Dependency& conclusion) const override;
  std::string name() const override { return "fd+ind-chase"; }

 private:
  SchemePtr scheme_;
};

/// Refutation-only oracle backed by witness databases: answers kNotImplied
/// when some witness satisfies every premise but violates the conclusion
/// (a counterexample database), else kUnknown. This is how the paper's own
/// Figures 6.1 and 7.1–7.5 are used — each figure is a counterexample
/// certifying a non-implication. Each witness lives in a persistent
/// InternedWorkspace (core/workspace.h): interned once when added, after
/// which every query is integer probing against cached projection
/// partitions, and new witnesses can be appended at any time without
/// disturbing the compiled state of the existing ones.
class CounterexampleOracle : public ImplicationOracle {
 public:
  explicit CounterexampleOracle(const std::vector<Database>& witnesses) {
    witnesses_.reserve(witnesses.size());
    for (const Database& db : witnesses) AddWitness(db);
  }

  /// Registers another counterexample database (e.g. one just found by the
  /// bounded searcher), interning it once into its own workspace.
  void AddWitness(const Database& db) {
    witnesses_.emplace_back(db.scheme_ptr());
    witnesses_.back().AppendDatabase(db);
  }

  std::size_t witness_count() const { return witnesses_.size(); }

  ImplicationVerdict Implies(const std::vector<Dependency>& premises,
                             const Dependency& conclusion) const override;
  std::string name() const override { return "counterexample-databases"; }

 private:
  std::vector<InternedWorkspace> witnesses_;
};

/// Tries each child in order; first non-kUnknown verdict wins.
class ChainOracle : public ImplicationOracle {
 public:
  explicit ChainOracle(std::vector<const ImplicationOracle*> children)
      : children_(std::move(children)) {}
  ImplicationVerdict Implies(const std::vector<Dependency>& premises,
                             const Dependency& conclusion) const override;
  std::string name() const override;

 private:
  std::vector<const ImplicationOracle*> children_;
};

}  // namespace ccfp

#endif  // CCFP_AXIOM_ORACLE_H_
