#ifndef CCFP_SERVICE_SHARED_CORE_H_
#define CCFP_SERVICE_SHARED_CORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/database.h"
#include "core/dependency.h"
#include "core/schema.h"
#include "core/workspace.h"
#include "mine/discovery.h"
#include "search/bounded.h"
#include "util/status.h"

namespace ccfp {

/// The immutable, reference-counted substrate every session over one
/// (scheme, sigma [, warm data]) triple shares — the expensive capital a
/// solver session used to rebuild privately on every construction:
///
///   * a *sealed* base workspace: the value interner frozen behind a
///     shared table (core/intern.h), every warm tuple interned, and every
///     projection partition the warm-up touched compiled — a session
///     forks it for the price of a few flat vector copies (never the
///     value table), and the fork's copy-on-write interner
///     extends locally without ever duplicating (or re-hashing) the shared
///     value table;
///   * a thread-safe BoundedSearchWorkspace (search/bounded.h), so the
///     Nth session's refutation searches compile zero key tables.
///
/// Witness caches are not shared: each solve session's ImplicationSolver
/// owns its own, so its evidence never depends on a sibling's history.
///
/// A core is deeply immutable after Build (the search tables mutate
/// internally but are safe for concurrent use), so the service
/// hands out `shared_ptr<const SolverCore>` with no further locking. The
/// acceptance proof that sharing works is in the counters: a forked
/// workspace inherits the base's Stats, so a session's re-interning and
/// partition compilation read as *deltas over base_stats()* — zero for a
/// session that only touches warm state.
class SolverCore {
 public:
  /// Validates sigma, interns `warm` (when provided), compiles the
  /// partitions sigma verification touches, and seals the result. With
  /// warm data it also runs the mining sweeps (default FdMiningOptions /
  /// IndMiningOptions, plus RDs) so every candidate projection partition
  /// is compiled into the shared base: mining sessions forked from the
  /// core re-mine from cached partitions alone. InvalidArgument on a
  /// sigma member that does not fit the scheme.
  static Result<std::shared_ptr<const SolverCore>> Build(
      SchemePtr scheme, std::vector<Dependency> sigma,
      const Database* warm = nullptr);

  /// Stable identity of the substrate: scheme + sigma + warm data,
  /// hashed a 64-bit word at a time from a canonical encoding, without
  /// rendering the data to text. Two Build calls with equal inputs
  /// collide here — the service's dedup key, and the record id a mining
  /// session's spill chain is rooted at (the sealed base is record 0 of
  /// every such chain).
  static std::uint64_t Identity(const DatabaseScheme& scheme,
                                const std::vector<Dependency>& sigma,
                                const Database* warm = nullptr);

  const DatabaseScheme& scheme() const { return *scheme_; }
  const SchemePtr& scheme_ptr() const { return scheme_; }
  const std::vector<Dependency>& sigma() const { return sigma_; }
  /// SchemeFingerprint(scheme) — the service's shard routing key.
  std::uint64_t fingerprint() const { return fingerprint_; }
  std::uint64_t identity() const { return identity_; }

  /// The sealed base workspace (frozen interner, compiled partitions).
  const InternedWorkspace& base() const { return base_; }
  /// Substrate counters at seal time — the baseline session deltas are
  /// measured against.
  const InternedWorkspace::Stats& base_stats() const { return base_stats_; }

  /// A mutable overlay: shares the frozen interner table and copies the
  /// rest — the row arenas, occurrence cells and every compiled partition
  /// — as flat vectors, so a fork costs O(relations + partitions)
  /// allocations whatever the warm row count. See InternedWorkspace::Fork
  /// for what is reset (journal, cursors, chain identity).
  InternedWorkspace ForkWorkspace() const { return base_.Fork(); }

  /// Shared, thread-safe search key tables (mutable through a const core:
  /// internally synchronized and observationally transparent).
  BoundedSearchWorkspace& search_tables() const { return search_tables_; }

 private:
  // The service looks a core up by Identity before building it; it hands
  // that identity to Build rather than hashing the warm data twice.
  friend class SolverService;

  SolverCore(SchemePtr scheme, std::vector<Dependency> sigma);

  /// Build over a validated sigma with `identity` ==
  /// Identity(*scheme, sigma, warm) precomputed.
  static Result<std::shared_ptr<const SolverCore>> Build(
      std::uint64_t identity, SchemePtr scheme,
      std::vector<Dependency> sigma, const Database* warm);

  SchemePtr scheme_;
  std::vector<Dependency> sigma_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t identity_ = 0;
  InternedWorkspace base_;
  InternedWorkspace::Stats base_stats_;
  mutable BoundedSearchWorkspace search_tables_;
};

}  // namespace ccfp

#endif  // CCFP_SERVICE_SHARED_CORE_H_
