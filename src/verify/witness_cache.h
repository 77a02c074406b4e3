#ifndef CCFP_VERIFY_WITNESS_CACHE_H_
#define CCFP_VERIFY_WITNESS_CACHE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/database.h"
#include "core/dependency.h"
#include "core/schema.h"
#include "core/workspace.h"
#include "verify/verifier.h"

namespace ccfp {

/// A cache of *verified counterexample databases* over one fixed sigma.
///
/// A refutation found while deciding `sigma |= tau1` is evidence against
/// every later target it happens to violate: any finite database that
/// satisfies sigma and violates tau proves sigma does not imply tau —
/// under unrestricted AND finite semantics, for every fragment. The
/// ImplicationSolver keeps one of these per solver so repeated negative
/// queries over the same sigma become near-free replays instead of fresh
/// chase/search runs (open ROADMAP item; the same trick
/// CounterexampleOracle plays for the k-ary closure machinery, here with
/// incremental watchers instead of sweeps).
///
/// Each entry pins its database in a persistent InternedWorkspace with an
/// IncrementalVerifier watching sigma (verified satisfied on admission)
/// — probing a new target against an entry registers one watcher on the
/// already-interned data, and probing a repeated target is a counter
/// read.
///
/// ## Thread safety
///
/// One owner (an ImplicationSolver) per cache. All cache state sits behind
/// one mutex — probes mutate too (Watch registers watchers) — so stats()
/// and size() stay safe to read from another thread while the owner
/// admits and probes. Refute hands back a shared_ptr so a hit stays alive
/// even if its entry is evicted later.
class WitnessCache {
 public:
  struct Stats {
    std::uint64_t admitted = 0;   ///< entries accepted (sigma verified)
    std::uint64_t rejected = 0;   ///< candidates that failed sigma
    std::uint64_t evicted = 0;    ///< entries dropped at capacity
    std::uint64_t probes = 0;     ///< Refute calls
    std::uint64_t hits = 0;       ///< Refute calls answered from cache
    std::uint64_t misses = 0;     ///< Refute calls no entry answered
    /// Per-entry verifiers rebuilt because their watcher set hit the
    /// watch cap (see the constructor) — the bound on per-entry growth.
    std::uint64_t watcher_resets = 0;
    /// Entries dropped by EnforceByteCeiling (counted in `evicted` too).
    std::uint64_t byte_evictions = 0;
  };

  /// The full answer to "offer this database as a witness against
  /// `target`" (see Admit).
  struct AdmitOutcome {
    /// The database is resident after the call (newly inserted, or a
    /// duplicate whose recency was refreshed). Always false at capacity 0.
    bool admitted = false;
    /// The database satisfies sigma AND violates the target — the
    /// genuineness check callers need before attaching it as evidence.
    bool genuine = false;
  };

  /// `sigma` should be the solver's non-trivial members; `capacity` bounds
  /// the number of cached databases (least-recently-used evicted first —
  /// a hit or duplicate re-admission refreshes an entry's recency, so a
  /// witness that keeps refuting new targets stays resident while
  /// one-shot witnesses age out).
  ///
  /// `max_watches_per_entry` bounds the *per-entry* watcher growth: every
  /// distinct probed target registers one watcher on every cached entry,
  /// and the verifier has no unwatch, so an unbounded probe stream would
  /// otherwise grow every entry without limit. When an entry reaches the
  /// cap, its verifier is rebuilt fresh over sigma alone (cheap — the
  /// workspace's partitions are already compiled, and sigma's verdicts
  /// are re-established from them) and probed targets re-register on
  /// demand, trading the coldest watchers for bounded memory.
  WitnessCache(SchemePtr scheme, std::vector<Dependency> sigma,
               std::size_t capacity = 8,
               std::size_t max_watches_per_entry = 64);

  /// Snapshot of the counters (by value: safe against concurrent use).
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  /// Logical bytes of live cache state: per entry, the pinned workspace,
  /// the pinned heap Database copy, and the verifier's watcher state —
  /// the number EnforceByteCeiling compares against `Budget::bytes`.
  std::uint64_t MemoryBytes() const;

  /// Evicts coldest-first until MemoryBytes() <= `limit` (the solver
  /// calls this with the query's `Budget::bytes` ceiling so the cache is
  /// counted against the caller's live-state budget rather than growing
  /// beside it). May empty the cache entirely. Returns the number of
  /// entries dropped (service stats surface it per session).
  std::uint64_t EnforceByteCeiling(std::uint64_t limit);

  /// Offers `db` to the cache. The database is interned into a fresh
  /// workspace and sigma is verified through watchers; a candidate that
  /// fails sigma is rejected (and counted — callers treat that as "not a
  /// genuine counterexample"). A duplicate of a cached database is
  /// re-verified but not stored twice. The outcome carries both the
  /// residency answer and whether `db` genuinely refutes `target`.
  AdmitOutcome Admit(const Database& db, const Dependency& target);

  /// A cached database violating `target`, or null. Every cached entry
  /// satisfies sigma by construction, so a hit is a complete,
  /// already-verified refutation of `sigma |= target`. The pointer keeps
  /// the database alive independently of later evictions.
  std::shared_ptr<const Database> Refute(const Dependency& target);

 private:
  struct Entry {
    /// Set only when the entry is retained; verification runs on the
    /// interned `ws` copy alone. shared so Refute hits outlive eviction.
    std::shared_ptr<const Database> db;
    InternedWorkspace ws;
    /// Behind a unique_ptr so the watch-cap reset can rebuild it (the
    /// verifier itself is non-movable — it registers a feed cursor).
    std::unique_ptr<IncrementalVerifier> verifier;

    explicit Entry(SchemePtr scheme)
        : ws(std::move(scheme)),
          verifier(std::make_unique<IncrementalVerifier>(&ws)) {}
  };

  /// Moves entries_[i] to the back (most-recently-used position).
  void Touch(std::size_t i);
  /// The entry's verifier, rebuilt fresh over sigma when its watcher set
  /// has reached max_watches_per_entry (see the constructor).
  IncrementalVerifier& ProbeVerifier(Entry& e);
  /// Whether the entry's pinned database violates `target`, through its
  /// (possibly rebuilt) verifier. Requires mu_ held.
  bool EntryViolates(Entry& e, const Dependency& target);
  /// MemoryBytes' sum. Requires mu_ held.
  std::uint64_t BytesLocked() const;

  SchemePtr scheme_;
  std::vector<Dependency> sigma_;
  std::size_t capacity_;
  std::size_t max_watches_per_entry_;
  mutable std::mutex mu_;
  /// LRU order: front = coldest (next eviction), back = hottest.
  std::deque<std::unique_ptr<Entry>> entries_;
  Stats stats_;
};

}  // namespace ccfp

#endif  // CCFP_VERIFY_WITNESS_CACHE_H_
