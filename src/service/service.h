#ifndef CCFP_SERVICE_SERVICE_H_
#define CCFP_SERVICE_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "armstrong/builder.h"
#include "axiom/oracle.h"
#include "core/database.h"
#include "core/dependency.h"
#include "core/schema.h"
#include "core/snapshot.h"
#include "mine/discovery.h"
#include "service/shared_core.h"
#include "solve/solver.h"
#include "util/budget.h"
#include "util/status.h"

namespace ccfp {

/// A multi-session front end over the solving engines: many concurrent
/// implication, mining, and Armstrong sessions served from shared
/// immutable cores (service/shared_core.h). Concurrency comes from the
/// callers: each op runs on the thread that called it.
///
/// ## Architecture
///
///   * **Cores** are deduplicated by SolverCore::Identity — the Nth
///     session over a (scheme, sigma, warm data) triple adopts the
///     existing core and pays zero re-interning and zero partition
///     compilation (provable from SessionStats deltas).
///   * **Sessions** live in shards keyed by the core's scheme
///     fingerprint; a SessionId encodes its shard (`id % shard_count`),
///     so routing a call touches one shard mutex, never a global one.
///     Ops on distinct sessions run concurrently (callers may invoke the
///     service from many threads); ops on one session serialize on its
///     own mutex.
///   * **Budgets**: each session carries a lifetime step ceiling, a plain
///     counter under the session mutex. Every op's measured consumption
///     is charged after the fact; once the ceiling is crossed, further ops
///     are refused with ResourceExhausted — the op that crossed the line
///     still returns its (correct) verdict. Exhaustion is an admission
///     outcome, never a wrong answer.
///   * **Admission control**: a bounded in-flight op count and a bounded
///     resident session count; both overflows are ResourceExhausted with
///     a reason, never queueing and never degraded results.
///   * **Eviction/revival**: Evict spills a session's state to its
///     snapshot chain under `spill_dir` and frees the memory. Mining: the
///     overlay's own delta records, in a chain rooted at the shared core
///     (its sealed base is record 0, never written); revival forks the
///     core again and replays them. Armstrong: workspace + universe
///     classification as the chain's aux record, revived with zero oracle
///     replay. Solve sessions are pure capital and just drop their
///     engines. The next op on an evicted session revives it
///     transparently. Chains are written under the exclusive
///     cross-process lock (SnapshotChainPolicy::exclusive).
///
/// ## Determinism
///
/// Every solve session's ImplicationSolver owns its witness cache, built
/// exactly as a standalone solver builds it, so the session's verdicts
/// AND evidence are bit-identical to a standalone sequential
/// ImplicationSolver no matter how many siblings run beside it.
class SolverService {
 public:
  using SessionId = std::uint64_t;

  /// Session shard count.
  static constexpr std::size_t kShards = 4;

  struct Options {
    /// Resident (non-closed) session ceiling; Open beyond it is refused.
    std::size_t max_sessions = 64;
    /// Concurrent in-flight op ceiling across all sessions.
    std::size_t max_inflight = 64;
    /// Lifetime step ceiling per session (charged per op, post hoc).
    std::uint64_t session_step_ceiling = UINT64_MAX;
    /// Where evicted sessions spill their snapshot chains. Empty
    /// disables Evict for stateful sessions (FailedPrecondition).
    std::string spill_dir;
    /// Base solve options for solve sessions (semantics, evidence,
    /// search shape). `shared_search_tables` is overwritten per session.
    SolveOptions solve;
  };

  enum class SessionKind : std::uint8_t { kSolve = 0, kMine = 1, kArmstrong = 2 };

  /// Per-session counters, self-contained (safe to read after Close).
  struct SessionStats {
    SessionKind kind = SessionKind::kSolve;
    bool evicted = false;
    /// The lifetime ceiling: every op charges `steps_used`, and once it
    /// passes `Options::session_step_ceiling` the session is exhausted
    /// for good.
    bool budget_exhausted = false;
    std::uint64_t ops = 0;
    std::uint64_t steps_used = 0;
    std::uint64_t evictions = 0;
    std::uint64_t revivals = 0;
    /// Substrate work over the shared core's sealed baseline, summed
    /// over the session's lives — the shared-core reuse proof: a session
    /// that only reads warm state shows 0 for both. A mining revival
    /// re-interns nothing (the replayed growth is not counted again), but
    /// a partition the core did not compile is compiled again, and
    /// counted again, the first time a revived session needs it.
    std::uint64_t values_interned = 0;
    std::uint64_t partitions_built = 0;
    /// The session solver's witness cache counters, summed over every
    /// life of the session (a revival starts a fresh solver).
    WitnessCache::Stats witness;
    /// Logical bytes of the resident session's workspace,
    /// `MemoryUsage().Total()` with its mutation journal: a mining
    /// session's journal grows with every append until the next spill.
    /// A mining session is not charged the core's frozen value table,
    /// which its fork shares (`SharedInternerBytes()`). 0 for solve
    /// sessions and while evicted.
    std::uint64_t resident_bytes = 0;
  };

  struct ServiceStats {
    std::size_t cores = 0;            ///< distinct substrates built
    std::uint64_t core_reuses = 0;    ///< sessions that adopted an existing core
    std::size_t sessions_resident = 0;
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_evicted = 0;
    std::uint64_t sessions_revived = 0;
    std::uint64_t rejected_inflight = 0;
    std::uint64_t rejected_capacity = 0;
    std::uint64_t rejected_budget = 0;
  };

  SolverService();  ///< all-default Options
  explicit SolverService(Options options);
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// --- admission ------------------------------------------------------

  /// An implication session over (scheme, sigma). The Nth open over equal
  /// inputs shares the first's core.
  Result<SessionId> OpenSolve(SchemePtr scheme,
                              std::vector<Dependency> sigma);
  /// A mining session over `data`. The data is interned once, into the
  /// shared core; the session forks a copy-on-write overlay over it and
  /// may append private deltas.
  Result<SessionId> OpenMine(SchemePtr scheme, const Database& data);
  /// An Armstrong construction session for (fds, inds), oracle-backed by
  /// a chase over the shared core's scheme.
  Result<SessionId> OpenArmstrong(SchemePtr scheme, std::vector<Fd> fds,
                                  std::vector<Ind> inds,
                                  ArmstrongBuildOptions build = {});

  /// --- session ops (concurrent across sessions) -----------------------

  /// Decides sigma |= target within `budget` on the session's solver.
  Result<Verdict> Solve(SessionId id, const Dependency& target,
                        const Budget& budget = Budget());

  /// Appends `delta`'s tuples into the mining session's private overlay.
  Status Append(SessionId id, const Database& delta);
  Result<std::vector<Fd>> MineSessionFds(SessionId id, RelId rel,
                                         const FdMiningOptions& fd = {});
  Result<std::vector<Ind>> MineSessionInds(SessionId id,
                                           const IndMiningOptions& ind = {});
  Result<std::vector<Rd>> MineSessionRds(SessionId id);

  /// Grows the Armstrong session's universe (builder.h semantics).
  Status Extend(SessionId id, const std::vector<Dependency>& delta);
  /// The session's current verified-exact Armstrong database.
  Result<Database> ArmstrongDatabase(SessionId id);

  /// --- lifecycle ------------------------------------------------------

  /// Spills the session to its snapshot chain (stateful kinds) and frees
  /// its live engines. The next op revives it transparently. A mining
  /// session unchanged since its last record writes nothing.
  Status Evict(SessionId id);
  /// Removes the session. Its spill chain (if any) is left on disk.
  Status Close(SessionId id);

  Result<SessionStats> Stats(SessionId id) const;
  ServiceStats stats() const;

  std::size_t shard_count() const { return kShards; }
  /// The shard a scheme routes to — exposed so tests can pin collisions.
  std::size_t ShardOf(const DatabaseScheme& scheme) const;

 private:
  struct Session {
    SessionKind kind = SessionKind::kSolve;
    std::shared_ptr<const SolverCore> core;
    /// Serializes ops on this session (ops across sessions run truly
    /// concurrently on the shared search tables' internal lock).
    std::mutex mu;

    /// Live engine state; null while evicted.
    std::unique_ptr<ImplicationSolver> solver;       // kSolve
    std::unique_ptr<InternedWorkspace> mine_ws;      // kMine
    /// mine_ws's counters when this life began (open or revival).
    InternedWorkspace::Stats mine_life_base;         // kMine
    std::unique_ptr<ArmstrongSession> armstrong;     // kArmstrong
    std::unique_ptr<ChaseOracle> oracle;             // kArmstrong
    std::vector<Fd> fds;                             // kArmstrong params
    std::vector<Ind> inds;
    ArmstrongBuildOptions build;

    std::unique_ptr<SnapshotChainWriter> chain;

    bool evicted = false;
    SessionStats stats;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<SessionId, std::shared_ptr<Session>> sessions;
    std::uint64_t next = 0;
  };

  /// Bounded in-flight op count, RAII style.
  class InflightGuard;

  /// The deduplicating core registry.
  Result<std::shared_ptr<const SolverCore>> AcquireCore(
      SchemePtr scheme, std::vector<Dependency> sigma, const Database* warm);

  Result<SessionId> Admit(std::shared_ptr<Session> session);
  Result<std::shared_ptr<Session>> Find(SessionId id) const;

  /// Builds (or rebuilds, on revival) a solve session's engines over its
  /// core. Requires session->mu held.
  void ProvisionSolver(Session& s);
  /// Revives an evicted session from its spill chain. Requires s.mu held.
  Status ReviveLocked(Session& s);
  /// One session op: routes `id`, refuses the wrong kind, admits the op
  /// past the in-flight ceiling, locks the session, revives it if
  /// evicted, refuses it once the lifetime step ceiling is spent, then
  /// returns `op(session)` (which charges its own steps). Every charging
  /// op goes through here, so none can skip a check.
  template <typename Op>
  auto RunOp(SessionId id, SessionKind kind, Op op)
      -> decltype(op(std::declval<Session&>()));
  /// Counts one op and charges `steps` (at least 1) against the
  /// session's lifetime ceiling. Requires s.mu held.
  void ChargeLocked(Session& s, std::uint64_t steps);
  /// The session's stats plus the counters derivable only from live
  /// engines (witness counters, substrate deltas). Evict stores it back
  /// into `s.stats` before dropping the engines. Requires s.mu held.
  SessionStats LiveStatsLocked(const Session& s) const;
  std::string ChainPrefix(SessionId id) const;

  Options options_;
  std::array<Shard, kShards> shards_;

  mutable std::mutex cores_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const SolverCore>> cores_;

  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::size_t> resident_{0};

  mutable std::mutex stats_mu_;
  ServiceStats stats_;
};

}  // namespace ccfp

#endif  // CCFP_SERVICE_SERVICE_H_
