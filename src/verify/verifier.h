#ifndef CCFP_VERIFY_VERIFIER_H_
#define CCFP_VERIFY_VERIFIER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/dependency.h"
#include "core/workspace.h"
#include "util/budget.h"
#include "util/status.h"

namespace ccfp {

/// Handle of one watched dependency inside an IncrementalVerifier.
using WatchId = std::size_t;

/// Delta-driven satisfaction checking over a live InternedWorkspace.
///
/// The full-sweep checks (`InternedWorkspace::Satisfies` /
/// `FindViolation`, core/workspace.cc) pay O(relation) per query no
/// matter how little changed since the last one. The paper's loops —
/// Armstrong build -> chase -> verify -> repair, the solver's decide ->
/// refute, mining sweeps re-run after appends — re-check the same
/// dependencies against slightly-changed databases over and over, which
/// is exactly the access pattern incremental maintenance exploits.
///
/// An IncrementalVerifier compiles each watched FD/IND/RD (and
/// refutation-only EMVD/MVD) into a *watcher*: per-dependency counters
/// keyed on the workspace's cached projection partitions. `CatchUp()`
/// consumes the workspace change feed (core/workspace.h) from a cursor and
/// updates every affected watcher in time proportional to the delta, after
/// which `Satisfies(id)` is O(1) and `FindViolation(id)` is O(1) for a
/// satisfied dependency. Watcher shapes:
///
///   * FD X -> Y: the refinement criterion |pi_X| == |pi_{X u Y}|. Both
///     counts come from *composed group counters*: the counter for a
///     sorted attribute set S assigns dense stable group ids to the alive
///     distinct (prefix-group, last-column-group) id pairs, built
///     recursively from the workspace's singleton partitions — so only
///     width-1 column sets ever hash a projection tuple, every wider set
///     costs two array reads plus one open-addressed integer-map op per
///     event, and counters are shared across every FD whose lhs or
///     lhs-union-rhs lands on the same attribute set.
///   * IND R[X] <= S[Y]: both sides read a shared *group tracker* — one
///     per (relation, column sequence), holding the per-slot counted
///     group and per-group alive counts ONCE for every IND that projects
///     the same columns on either side — plus a lazily resolved
///     group-to-group key link per watcher; `missing` counts alive lhs
///     groups without an alive rhs witness. (The per-watcher per-slot
///     seen arrays this replaces were the biggest per-watcher line item.)
///   * RD: per-slot violation flags.
///   * EMVD/MVD: per-X-group distinct-XY / distinct-XZ / distinct-pair
///     counters (the group obeys the dependency iff ny * nz == np).
///
/// The full-sweep path stays the differential reference engine
/// (tests/verify_property_test.cc asserts verdict + witness agreement at
/// every cursor position of randomized append/merge/kill traces).
///
/// ## Contract
///
/// `Watch` / `CatchUp` / the query methods require the workspace to be
/// quiescent (no stale tuples) — the same contract as
/// `InternedWorkspace::Satisfies`. Between calls the workspace may mutate
/// freely (appends, chase rounds with merges); the verifier needs no
/// notification beyond the feed. Watching the same dependency twice
/// returns the same WatchId (dedup by structural equality), so candidate
/// sweeps that revisit lattice levels reuse watcher state.
///
/// ## Compaction and memory
///
/// The verifier registers a feed cursor with the workspace (released on
/// destruction), so `CompactFeed` never trims events it has not replayed
/// and nothing else trims a watched workspace's feed (a snapshot delta
/// refuses a workspace with registered cursors). `MemoryBytes()` reports
/// the watcher-side live state, and the budgeted `CatchUp(Budget)`
/// overload returns ResourceExhausted at the byte ceiling mid-stream
/// (resumable: a later CatchUp finishes the replay; verdicts must not be
/// read before one completes).
class IncrementalVerifier {
 public:
  struct Stats {
    std::uint64_t catch_ups = 0;        ///< CatchUp calls that saw events
    std::uint64_t events_consumed = 0;  ///< feed entries read
    std::uint64_t watcher_events = 0;   ///< (event, subscribed watcher) pairs
    std::uint64_t sweep_fallbacks = 0;  ///< FindViolation sweep delegations
  };

  /// The verifier holds `ws` by pointer; it must outlive the verifier.
  explicit IncrementalVerifier(const InternedWorkspace* ws);
  ~IncrementalVerifier();

  IncrementalVerifier(const IncrementalVerifier&) = delete;
  IncrementalVerifier& operator=(const IncrementalVerifier&) = delete;
  /// Not movable: the verifier owns a registered feed cursor and its
  /// watchers hold stable interior pointers.
  IncrementalVerifier(IncrementalVerifier&&) = delete;
  IncrementalVerifier& operator=(IncrementalVerifier&&) = delete;

  const InternedWorkspace& workspace() const { return *ws_; }
  const Stats& stats() const { return stats_; }
  std::size_t watch_count() const { return watchers_.size(); }

  /// Registers `dep` (CHECK-fails if invalid for the workspace's scheme)
  /// and builds its counters from the current workspace state. Returns the
  /// existing id if `dep` is already watched.
  WatchId Watch(const Dependency& dep);

  /// The dependency behind a WatchId.
  const Dependency& dependency(WatchId id) const;

  /// Consumes every unseen change-feed event, updating the affected
  /// watchers; O(delta). Called implicitly by the query methods, so
  /// explicit calls are only needed for timing control.
  void CatchUp();

  /// Budgeted CatchUp: between relations, checks `budget.bytes` against
  /// the combined workspace + watcher live bytes (and consults the
  /// kWatcherGrow fault site), returning ResourceExhausted mid-stream.
  /// Resumable — a later CatchUp (either overload) finishes the replay —
  /// but verdicts are undefined until one completes without exhausting.
  Status CatchUp(const Budget& budget);

  /// Live logical bytes of watcher-side state: shared group counters and
  /// trackers, per-watcher link arrays and flags (see
  /// util/memory_budget.h; the workspace's own bytes are reported by
  /// InternedWorkspace::MemoryUsage).
  std::uint64_t MemoryBytes() const;

  /// Current verdict for one watched dependency; O(1) after CatchUp.
  bool Satisfies(WatchId id);

  /// Violation witness (same witness the full sweep reports — the sweep
  /// is delegated to when the counters say "violated", so this is
  /// O(relation) on a violation but O(1) on satisfaction).
  std::optional<IdViolation> FindViolation(WatchId id);

 private:
  struct Watcher;
  struct FdWatcher;
  struct IndWatcher;
  struct RdWatcher;
  struct EmvdWatcher;
  struct GroupCounter;
  struct GroupTracker;

  /// What a column set's grouping looks like to a consumer: the alive
  /// distinct-group count and the per-slot group ids — served either by a
  /// workspace partition (width <= 1) or by a composed GroupCounter.
  struct CountSource {
    const std::uint32_t* alive = nullptr;
    const std::vector<std::uint32_t>* groups = nullptr;
  };

  const InternedWorkspace::Partition* RegisterColset(
      RelId rel, std::vector<AttrId> cols);
  /// The grouping of `rel` by the sorted attribute set `cols`, composed
  /// recursively (prefix x last column); created on first use, then
  /// maintained from the feed. `cols` must be sorted and duplicate-free.
  CountSource RegisterCountSet(RelId rel, std::vector<AttrId> cols);
  /// The shared alive-group tracker of `rel` projected on the column
  /// *sequence* `cols` (order significant — it names the IND key link);
  /// created on first use, maintained from the feed, shared by every IND
  /// side over the same (rel, cols).
  GroupTracker* RegisterTracker(RelId rel, const std::vector<AttrId>& cols);
  void Subscribe(RelId rel, WatchId id);
  /// Replays `rel`'s retained feed suffix from cursor_[rel] and advances
  /// the cursor.
  void CatchUpRelation(RelId rel);

  const InternedWorkspace* ws_;
  std::vector<std::unique_ptr<Watcher>> watchers_;
  std::unordered_map<Dependency, WatchId, DependencyHash> index_;
  std::vector<std::unique_ptr<GroupCounter>> counters_;
  std::map<std::pair<RelId, std::vector<AttrId>>, GroupCounter*>
      counter_index_;
  std::vector<std::unique_ptr<GroupTracker>> trackers_;
  std::map<std::pair<RelId, std::vector<AttrId>>, GroupTracker*>
      tracker_index_;
  std::vector<std::vector<WatchId>> by_rel_;  ///< feed subscribers per rel
  /// Creation order == composition order: a counter's sources precede it,
  /// so replaying a delta counter-by-counter is topologically sound.
  std::vector<std::vector<GroupCounter*>> counters_by_rel_;
  std::vector<std::vector<GroupTracker*>> trackers_by_rel_;
  std::vector<std::uint64_t> cursor_;         ///< feed cursor per rel
  InternedWorkspace::FeedCursorId feed_cursor_ = 0;  ///< pins compaction
  Stats stats_;
};

/// Watcher-backed analogue of core/satisfies.h `ObeysExactly` for callers
/// that keep the WatchIds across rounds (the ArmstrongSession):
/// `expected[i]` says whether universe[i] (watched as `ids[i]`) must hold.
/// Produces the same diagnostic strings as the sweep version; re-checks
/// are pure counter reads, O(delta + universe) per call instead of
/// O(universe * relation).
std::optional<std::string> ObeysExactlyWatchedIds(
    IncrementalVerifier& verifier, const std::vector<Dependency>& universe,
    const std::vector<bool>& expected, const std::vector<WatchId>& ids);

}  // namespace ccfp

#endif  // CCFP_VERIFY_VERIFIER_H_
