#ifndef CCFP_CORE_SATISFIES_H_
#define CCFP_CORE_SATISFIES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/dependency.h"

namespace ccfp {

class InternedWorkspace;  // core/workspace.h

/// Which model-checking engine to run.
enum class SatisfiesEngine : std::uint8_t {
  /// Appends the involved relations into a throwaway InternedWorkspace,
  /// then checks over dense uint32 ids and cached projection partitions
  /// (core/workspace.h). The default.
  kInterned = 0,
  /// The original heap-Value hashing checks, kept as the differential
  /// reference (tests/satisfies_property_test.cc).
  kLegacy = 1,
};

struct SatisfiesOptions {
  SatisfiesEngine engine = SatisfiesEngine::kInterned;
};

/// Model checking: does database `db` obey the given dependency?
/// (Section 2 of the paper: "r obeys the FD ...", "d obeys the IND ...").
bool Satisfies(const Database& db, const Fd& fd);
bool Satisfies(const Database& db, const Ind& ind);
bool Satisfies(const Database& db, const Rd& rd);
bool Satisfies(const Database& db, const Emvd& emvd);
bool Satisfies(const Database& db, const Mvd& mvd);
bool Satisfies(const Database& db, const Dependency& dep,
               const SatisfiesOptions& options = {});

/// True iff `db` obeys every dependency in `deps`. The interned engine
/// appends `db` to one workspace and reuses its projection partitions
/// across all dependencies.
bool SatisfiesAll(const Database& db, const std::vector<Dependency>& deps,
                  const SatisfiesOptions& options = {});

/// The subset of `deps` that `db` obeys.
std::vector<Dependency> SatisfiedSubset(const Database& db,
                                        const std::vector<Dependency>& deps,
                                        const SatisfiesOptions& options = {});

/// A concrete witness that `db` violates a dependency, for diagnostics and
/// for re-checking that reported violations are genuine.
struct Violation {
  /// Human-readable explanation referencing the offending tuples.
  std::string description;
  /// Kind of the violated dependency.
  DependencyKind kind = DependencyKind::kFd;
  /// Relation holding the offending tuples (the lhs relation for INDs).
  RelId rel = 0;
  /// Index of the violated dependency within the query list; 0 for the
  /// single-dependency entry points, set by FindFirstViolation.
  std::size_t dep_index = 0;
  /// Indices of the offending tuples into `db.relation(rel).tuples()`:
  /// FD — two tuples agreeing on lhs and differing on rhs; IND — one tuple
  /// whose projection is missing from the rhs relation; RD — one tuple with
  /// t[X] != t[Y]; EMVD/MVD — two same-X-group tuples whose (XY, XZ)
  /// combination no tuple witnesses. All five kinds carry identical
  /// witnesses across both engines (differentially tested).
  std::vector<std::size_t> tuple_indices;
  /// Copies of the tuples at `tuple_indices`, in the same order.
  std::vector<Tuple> tuples;
};

/// Returns a violation witness, or nullopt if `db` obeys `dep`.
std::optional<Violation> FindViolation(const Database& db,
                                       const Dependency& dep,
                                       const SatisfiesOptions& options = {});

/// Returns the first violated dependency of `deps` (by list position) with
/// its witness (`dep_index` set), or nullopt if `db` obeys all of them.
std::optional<Violation> FindFirstViolation(
    const Database& db, const std::vector<Dependency>& deps,
    const SatisfiesOptions& options = {});

/// Checks that `db` obeys *exactly* the dependencies of `universe` that are
/// in `expected` (Fagin's Armstrong-database property, used to verify the
/// Section 6/7 witness databases). On failure returns a description of the
/// first discrepancy. The interned engine appends `db` to one workspace
/// for the whole universe sweep.
std::optional<std::string> ObeysExactly(
    const Database& db, const std::vector<Dependency>& universe,
    const std::vector<Dependency>& expected,
    const SatisfiesOptions& options = {});

/// Same check against a workspace (core/workspace.h) that already holds
/// the database — the Armstrong builders verify each round on the
/// workspace they chased, reusing its cached partitions and re-interning
/// no Value. Requires no stale tuples.
std::optional<std::string> ObeysExactly(
    const InternedWorkspace& ws, const std::vector<Dependency>& universe,
    const std::vector<Dependency>& expected);

}  // namespace ccfp

#endif  // CCFP_CORE_SATISFIES_H_
