#include "verify/verifier.h"

#include <algorithm>
#include <utility>

#include "core/tuple.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/memory_budget.h"
#include "util/strings.h"

namespace ccfp {

namespace {

/// "No group" sentinel shared with the workspace partitions; doubles as
/// the "slot not counted" marker in per-slot seen arrays.
constexpr std::uint32_t kNone = InternedWorkspace::kNoGroup;

void EnsureGroups(std::vector<std::uint32_t>& v, std::size_t n) {
  if (v.size() < n) v.resize(n, kNone);
}

void EnsureCounts(std::vector<std::uint32_t>& v, std::size_t n) {
  if (v.size() < n) v.resize(n, 0);
}

std::vector<AttrId> SortedUnique(std::vector<AttrId> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

/// Open-addressed uint64 -> uint32 map for the group counters' hot path
/// (one op per event): linear probing, power-of-two capacity, insert-only
/// (group ids are never recycled — a vacated group keeps its id as a
/// tombstone, exactly like the workspace partitions), several times
/// cheaper than std::unordered_map here. No valid packed key is all-ones
/// (that is pack(kNoGroup, kNoGroup), the dead marker), so it serves as
/// the empty slot marker.
class PairKeyMap {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// The id bound to `key`, inserting `next_id` on first sight. Sets
  /// `inserted` accordingly.
  std::uint32_t GetOrAssign(std::uint64_t key, std::uint32_t next_id,
                            bool* inserted) {
    if ((size_ + 1) * 4 >= slots_.size() * 3) Grow();
    std::size_t mask = slots_.size() - 1;
    std::size_t i = Mix(key) & mask;
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) {
        *inserted = false;
        return s.id;
      }
      if (s.key == kEmpty) {
        s.key = key;
        s.id = next_id;
        ++size_;
        *inserted = true;
        return next_id;
      }
      i = (i + 1) & mask;
    }
  }

  /// Logical bytes of the slot table (the map is its only allocation).
  std::uint64_t bytes() const { return slots_.size() * sizeof(Slot); }

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint32_t id = 0;
  };

  static std::uint64_t Mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return x;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, old.size() * 2), Slot{});
    std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = Mix(s.key) & mask;
      while (slots_[i].key != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(16);
  std::size_t size_ = 0;
};

}  // namespace

/// The grouping of one relation by a sorted attribute set S, composed as
/// (prefix of S) x (last column of S): a dense stable group id per alive
/// distinct (source-group, source-group) id pair, plus per-group alive
/// sizes and the alive-group count |pi_S|. Sources are the workspace's
/// singleton partitions or other GroupCounters (the recursion bottoms out
/// at width 1), so no projection tuple is ever hashed here — an event
/// costs two array reads and one integer-map op. The per-slot `group_of`
/// doubles as the "what I counted" memory that makes replays idempotent
/// and lets merges/kills decrement exactly what was counted, and as the
/// group source for wider counters stacked on top.
struct IncrementalVerifier::GroupCounter {
  RelId rel = 0;
  CountSource a, b;
  std::vector<std::uint32_t> group_of;  ///< per slot; kNone = not counted
  PairKeyMap key_to_gid;
  std::vector<std::uint32_t> group_size;
  std::uint32_t group_count = 0;
  std::uint32_t alive_groups = 0;

  void Apply(std::uint32_t idx) {
    if (group_of.size() <= idx) group_of.resize(idx + 1, kNone);
    std::uint32_t g1 = (*a.groups)[idx];
    std::uint32_t g2 = (*b.groups)[idx];
    std::uint32_t now = kNone;
    if (g1 != kNone && g2 != kNone) {
      bool inserted = false;
      now = key_to_gid.GetOrAssign(PackIdPair(g1, g2), group_count,
                                   &inserted);
      if (inserted) {
        group_size.push_back(0);
        ++group_count;
      }
    }
    std::uint32_t was = group_of[idx];
    if (was == now) return;
    if (was != kNone && --group_size[was] == 0) --alive_groups;
    if (now != kNone && group_size[now]++ == 0) ++alive_groups;
    group_of[idx] = now;
  }

  void Init(const InternedWorkspace& ws) {
    std::uint32_t n = static_cast<std::uint32_t>(ws.size(rel));
    group_of.assign(n, kNone);
    for (std::uint32_t i = 0; i < n; ++i) Apply(i);
  }

  std::uint64_t bytes() const {
    return memory::VectorBytes(group_of) + memory::VectorBytes(group_size) +
           key_to_gid.bytes();
  }
};

/// The shared alive-group ledger of one (relation, column sequence): the
/// per-slot counted group and per-group alive member counts, held ONCE no
/// matter how many IND sides project these columns. Replaying the feed
/// through `Apply` fires born/died callbacks into the subscribed
/// IndWatchers exactly at 0 <-> 1 alive-count transitions — the only
/// events an IND verdict depends on — so the per-watcher footprint shrinks
/// from two O(relation) seen arrays per IND to O(groups) link arrays.
/// `slot_group` is the idempotence memory: Apply reads the final partition
/// group of a slot, so replaying a delta (or every slot, for a horizon
/// rebuild) moves each slot at most once and intermediate transitions
/// telescope away.
struct IncrementalVerifier::GroupTracker {
  struct Sub {
    IndWatcher* w = nullptr;
    bool is_lhs = false;
  };

  RelId rel = 0;
  const InternedWorkspace::Partition* p = nullptr;
  std::vector<std::uint32_t> slot_group;  ///< per slot; kNone = not counted
  std::vector<std::uint32_t> cnt;         ///< per group: alive members
  std::vector<Sub> subs;

  void Apply(std::uint32_t idx);

  void Init(const InternedWorkspace& ws) {
    std::uint32_t n = static_cast<std::uint32_t>(ws.size(rel));
    slot_group.assign(n, kNone);
    for (std::uint32_t i = 0; i < n; ++i) Apply(i);
  }

  std::uint64_t bytes() const {
    return memory::VectorBytes(slot_group) + memory::VectorBytes(cnt) +
           memory::VectorBytes(subs);
  }
};

/// ---------------------------------------------------------------------------
/// Watchers

struct IncrementalVerifier::Watcher {
  Dependency dep;

  explicit Watcher(Dependency d) : dep(std::move(d)) {}
  virtual ~Watcher() = default;

  /// Builds the counters from the current (quiescent) workspace state.
  virtual void Init(const InternedWorkspace& ws) = 0;
  /// Folds one change-feed event in. The partitions the watcher reads are
  /// refreshed before any event is delivered.
  virtual void OnEvent(const InternedWorkspace& ws, RelId rel,
                       const WorkspaceEvent& ev) = 0;
  virtual bool ok() const = 0;
  /// Live logical bytes of this watcher's private state (shared counters
  /// and trackers are accounted once, by the verifier).
  virtual std::uint64_t bytes() const { return 0; }
};

/// FD X -> Y via the refinement criterion: X -> Y holds iff |pi_X| ==
/// |pi_{X u Y}| (an X-group splitting across Y-groups is a violation).
/// Both counts come from shared count sources (workspace partitions or
/// composed GroupCounters), so this watcher subscribes to no events and
/// holds no per-slot state at all — a verdict is two loads.
struct IncrementalVerifier::FdWatcher : Watcher {
  const std::uint32_t* lhs_alive = nullptr;
  const std::uint32_t* comb_alive = nullptr;

  using Watcher::Watcher;
  void Init(const InternedWorkspace&) override {}
  void OnEvent(const InternedWorkspace&, RelId,
               const WorkspaceEvent&) override {}
  bool ok() const override { return *lhs_alive == *comb_alive; }
};

/// IND R[X] <= S[Y]: both sides read the shared GroupTrackers of
/// (R, X) and (S, Y); the watcher itself holds only the lazily resolved
/// 1:1 structural key link between lhs and rhs groups plus `missing`, the
/// count of alive lhs groups without an alive rhs witness (the IND holds
/// iff it is zero). Links are permanent: partition group ids are stable
/// and key -> group is injective, so a link resolved from either side
/// (whichever group is born later) never needs revisiting.
///
/// The degenerate self-IND R[X] <= R[X] is trivially satisfied and sharing
/// one tracker for both roles would double-count transitions, so it is
/// special-cased at Watch time: no trackers, `missing` stays 0.
struct IncrementalVerifier::IndWatcher : Watcher {
  Ind ind;
  bool trivial = false;  ///< R[X] <= R[X]: identical sides, always holds
  const InternedWorkspace::Partition* lhs_p = nullptr;
  const InternedWorkspace::Partition* rhs_p = nullptr;
  GroupTracker* lt = nullptr;
  GroupTracker* rt = nullptr;
  std::vector<std::uint32_t> l2r;  ///< lhs group -> same-key rhs group
  std::vector<std::uint32_t> r2l;  ///< rhs group -> same-key lhs group
  std::uint64_t missing = 0;

  IndWatcher(Dependency d, Ind i) : Watcher(std::move(d)), ind(std::move(i)) {}

  static std::uint32_t CntOf(const GroupTracker* t, std::uint32_t g) {
    return g < t->cnt.size() ? t->cnt[g] : 0;
  }

  std::uint32_t Witness(std::uint32_t g) const {
    return (g < l2r.size() && l2r[g] != kNone) ? CntOf(rt, l2r[g]) : 0;
  }

  /// Lhs group `g` went 0 -> 1 alive members. Tombstoned rhs groups
  /// still resolve: the link is structural (key -> group); alive-ness is
  /// the trackers' count.
  void OnLhsBorn(std::uint32_t g) {
    EnsureGroups(l2r, g + 1);
    if (l2r[g] == kNone) {
      std::uint32_t h = rhs_p->GroupOfKey(lhs_p->key(g));
      if (h != kNone) {
        l2r[g] = h;
        EnsureGroups(r2l, h + 1);
        r2l[h] = g;
      }
    }
    if (Witness(g) == 0) ++missing;
  }

  /// Lhs group `g` went 1 -> 0 alive members.
  void OnLhsDied(std::uint32_t g) {
    if (Witness(g) == 0) --missing;
  }

  /// Rhs group `h` went 0 -> 1 alive members.
  void OnRhsBorn(std::uint32_t h) {
    EnsureGroups(r2l, h + 1);
    if (r2l[h] == kNone) {
      std::uint32_t g = lhs_p->GroupOfKey(rhs_p->key(h));
      if (g != kNone) {
        r2l[h] = g;
        EnsureGroups(l2r, g + 1);
        l2r[g] = h;
      }
    }
    std::uint32_t g = r2l[h];
    if (g != kNone && CntOf(lt, g) > 0) --missing;  // witness went 0 -> 1
  }

  /// Rhs group `h` went 1 -> 0 alive members.
  void OnRhsDied(std::uint32_t h) {
    std::uint32_t g = h < r2l.size() ? r2l[h] : kNone;
    if (g != kNone && CntOf(lt, g) > 0) ++missing;  // witness went 1 -> 0
  }

  void Init(const InternedWorkspace&) override {
    if (trivial) return;
    // The shared trackers are already caught up (Watch aligns the cursors
    // first), so only the watcher-private links and `missing` need
    // building: one pass over the alive lhs groups, probing each group's
    // key into the rhs partition.
    for (std::uint32_t g = 0; g < lhs_p->group_count; ++g) {
      if (lhs_p->group_size[g] == 0) continue;  // tombstone
      EnsureGroups(l2r, g + 1);
      std::uint32_t h = rhs_p->GroupOfKey(lhs_p->key(g));
      if (h == kNone) continue;
      l2r[g] = h;
      EnsureGroups(r2l, h + 1);
      r2l[h] = g;
    }
    for (std::uint32_t g = 0;
         g < static_cast<std::uint32_t>(lt->cnt.size()); ++g) {
      if (lt->cnt[g] > 0 && Witness(g) == 0) ++missing;
    }
  }

  // Transitions arrive through the trackers' callbacks, not the feed.
  void OnEvent(const InternedWorkspace&, RelId,
               const WorkspaceEvent&) override {}

  bool ok() const override { return missing == 0; }

  std::uint64_t bytes() const override {
    return memory::VectorBytes(l2r) + memory::VectorBytes(r2l);
  }
};

void IncrementalVerifier::GroupTracker::Apply(std::uint32_t idx) {
  if (slot_group.size() <= idx) slot_group.resize(idx + 1, kNone);
  std::uint32_t now = p->group_of[idx];
  std::uint32_t was = slot_group[idx];
  if (was == now) return;
  if (was != kNone && --cnt[was] == 0) {
    for (const Sub& s : subs) {
      if (s.is_lhs) {
        s.w->OnLhsDied(was);
      } else {
        s.w->OnRhsDied(was);
      }
    }
  }
  if (now != kNone) {
    EnsureCounts(cnt, now + 1);
    if (cnt[now]++ == 0) {
      for (const Sub& s : subs) {
        if (s.is_lhs) {
          s.w->OnLhsBorn(now);
        } else {
          s.w->OnRhsBorn(now);
        }
      }
    }
  }
  slot_group[idx] = now;
}

/// RD: per-slot violation flags; no partitions at all.
struct IncrementalVerifier::RdWatcher : Watcher {
  Rd rd;
  /// Per slot: 0 = not counted, 1 = counted and obeying, 2 = counted and
  /// violating.
  std::vector<std::uint8_t> state;
  std::uint64_t violators = 0;

  RdWatcher(Dependency d, Rd r) : Watcher(std::move(d)), rd(std::move(r)) {}

  bool Violates(IdRow t) const {
    for (std::size_t k = 0; k < rd.lhs.size(); ++k) {
      if (t[rd.lhs[k]] != t[rd.rhs[k]]) return true;
    }
    return false;
  }

  void Set(std::uint32_t idx, std::uint8_t next) {
    if (state[idx] == 2) --violators;
    if (next == 2) ++violators;
    state[idx] = next;
  }

  void Init(const InternedWorkspace& ws) override {
    std::uint32_t n = static_cast<std::uint32_t>(ws.size(rd.rel));
    state.assign(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!ws.alive(rd.rel, i)) continue;
      Set(i, Violates(ws.tuple(rd.rel, i)) ? 2 : 1);
    }
  }

  void OnEvent(const InternedWorkspace& ws, RelId,
               const WorkspaceEvent& ev) override {
    if (state.size() < ws.size(rd.rel)) state.resize(ws.size(rd.rel), 0);
    if (ev.kind == WorkspaceEventKind::kKill ||
        !ws.alive(rd.rel, ev.idx)) {
      Set(ev.idx, 0);
      return;
    }
    Set(ev.idx, Violates(ws.tuple(rd.rel, ev.idx)) ? 2 : 1);
  }

  bool ok() const override { return violators == 0; }

  std::uint64_t bytes() const override {
    return memory::VectorBytes(state);
  }
};

/// EMVD X ->> Y | Z (MVDs are converted at Watch time): per X-group
/// counts of distinct XY groups (ny), distinct XZ groups (nz), and
/// distinct (XY, XZ) pairs (np); the group obeys the dependency iff
/// ny * nz == np (see SatisfiesEmvdOn in core/workspace.cc for the sweep
/// analogue).
struct IncrementalVerifier::EmvdWatcher : Watcher {
  RelId rel = 0;
  std::vector<AttrId> xy, xz;
  const InternedWorkspace::Partition* x_p = nullptr;
  const InternedWorkspace::Partition* xy_p = nullptr;
  const InternedWorkspace::Partition* xz_p = nullptr;
  std::vector<std::uint32_t> seen_x, seen_xy, seen_xz;  ///< per slot
  std::vector<std::uint32_t> ycnt, zcnt;  ///< per xy / xz group: members
  struct XStat {
    std::uint32_t ny = 0, nz = 0;
    std::uint64_t np = 0;
    bool bad = false;
  };
  std::vector<XStat> xs;  ///< per x group
  std::unordered_map<std::uint64_t, std::uint32_t> pair_cnt;
  std::uint64_t violated = 0;

  EmvdWatcher(Dependency d, RelId r, const std::vector<AttrId>& x,
              const std::vector<AttrId>& y, const std::vector<AttrId>& z)
      : Watcher(std::move(d)),
        rel(r),
        xy(AppendDistinctAttrs(x, y)),
        xz(AppendDistinctAttrs(x, z)) {}

  void Recheck(std::uint32_t gx) {
    XStat& s = xs[gx];
    bool bad = static_cast<std::uint64_t>(s.ny) * s.nz != s.np;
    if (bad != s.bad) {
      s.bad = bad;
      violated += bad ? 1 : -1;
    }
  }

  void Add(std::uint32_t gx, std::uint32_t gy, std::uint32_t gz) {
    if (xs.size() <= gx) xs.resize(gx + 1);
    EnsureCounts(ycnt, gy + 1);
    EnsureCounts(zcnt, gz + 1);
    // XY refines X, so gy (and gz, and the pair) belong to exactly one X
    // group — the caller's gx — and Remove passes the same one back.
    if (ycnt[gy]++ == 0) ++xs[gx].ny;
    if (zcnt[gz]++ == 0) ++xs[gx].nz;
    if (pair_cnt[PackIdPair(gy, gz)]++ == 0) ++xs[gx].np;
    Recheck(gx);
  }

  void Remove(std::uint32_t gx, std::uint32_t gy, std::uint32_t gz) {
    if (--ycnt[gy] == 0) --xs[gx].ny;
    if (--zcnt[gz] == 0) --xs[gx].nz;
    auto it = pair_cnt.find(PackIdPair(gy, gz));
    if (--it->second == 0) {
      pair_cnt.erase(it);
      --xs[gx].np;
    }
    Recheck(gx);
  }

  void Apply(const WorkspaceEvent& ev) {
    std::uint32_t idx = ev.idx;
    std::uint32_t gx = x_p->group_of[idx];
    std::uint32_t gy = gx == kNone ? kNone : xy_p->group_of[idx];
    std::uint32_t gz = gx == kNone ? kNone : xz_p->group_of[idx];
    if (seen_x[idx] == gx && seen_xy[idx] == gy && seen_xz[idx] == gz) {
      return;
    }
    if (seen_x[idx] != kNone) {
      Remove(seen_x[idx], seen_xy[idx], seen_xz[idx]);
    }
    if (gx != kNone) Add(gx, gy, gz);
    seen_x[idx] = gx;
    seen_xy[idx] = gy;
    seen_xz[idx] = gz;
  }

  void Init(const InternedWorkspace& ws) override {
    std::uint32_t n = static_cast<std::uint32_t>(ws.size(rel));
    EnsureGroups(seen_x, n);
    EnsureGroups(seen_xy, n);
    EnsureGroups(seen_xz, n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t gx = x_p->group_of[i];
      if (gx == kNone) continue;
      Add(gx, xy_p->group_of[i], xz_p->group_of[i]);
      seen_x[i] = gx;
      seen_xy[i] = xy_p->group_of[i];
      seen_xz[i] = xz_p->group_of[i];
    }
  }

  void OnEvent(const InternedWorkspace& ws, RelId,
               const WorkspaceEvent& ev) override {
    std::size_t n = ws.size(rel);
    EnsureGroups(seen_x, n);
    EnsureGroups(seen_xy, n);
    EnsureGroups(seen_xz, n);
    Apply(ev);
  }

  bool ok() const override { return violated == 0; }

  std::uint64_t bytes() const override {
    return memory::VectorBytes(seen_x) + memory::VectorBytes(seen_xy) +
           memory::VectorBytes(seen_xz) + memory::VectorBytes(ycnt) +
           memory::VectorBytes(zcnt) + memory::VectorBytes(xs) +
           static_cast<std::uint64_t>(pair_cnt.size()) *
               (sizeof(std::pair<std::uint64_t, std::uint32_t>) +
                memory::kHashNodeOverhead);
  }
};

/// ---------------------------------------------------------------------------
/// Verifier

IncrementalVerifier::IncrementalVerifier(const InternedWorkspace* ws)
    : ws_(ws),
      by_rel_(ws->scheme().size()),
      counters_by_rel_(ws->scheme().size()),
      trackers_by_rel_(ws->scheme().size()),
      cursor_(ws->scheme().size(), 0) {
  // Watchers created later initialize from current state; everything that
  // already happened is their baseline, not a delta to replay. The
  // registered cursor tells the workspace the same thing, so compaction
  // is never pinned behind events this verifier will never read.
  feed_cursor_ = ws_->RegisterFeedCursor();
  for (RelId rel = 0; rel < ws_->scheme().size(); ++rel) {
    cursor_[rel] = ws_->EventCount(rel);
    ws_->AdvanceFeedCursor(feed_cursor_, rel, cursor_[rel]);
  }
}

IncrementalVerifier::~IncrementalVerifier() {
  ws_->ReleaseFeedCursor(feed_cursor_);
}

const InternedWorkspace::Partition* IncrementalVerifier::RegisterColset(
    RelId rel, std::vector<AttrId> cols) {
  return &ws_->partition(rel, cols);
}

IncrementalVerifier::CountSource IncrementalVerifier::RegisterCountSet(
    RelId rel, std::vector<AttrId> cols) {
  if (cols.size() <= 1) {
    // The recursion bottoms out at the workspace's own partitions (the
    // only place a projection is hashed, and only one id wide).
    const InternedWorkspace::Partition* p = RegisterColset(rel, cols);
    return CountSource{&p->alive_groups, &p->group_of};
  }
  auto key = std::make_pair(rel, std::move(cols));
  auto it = counter_index_.find(key);
  if (it != counter_index_.end()) {
    GroupCounter* gc = it->second;
    return CountSource{&gc->alive_groups, &gc->group_of};
  }
  // (prefix x last column), recursively — every prefix set is itself a
  // shared counter, so FDs over overlapping attribute sets reuse layers.
  std::vector<AttrId> prefix(key.second.begin(), key.second.end() - 1);
  std::vector<AttrId> last = {key.second.back()};
  auto gc = std::make_unique<GroupCounter>();
  gc->rel = rel;
  gc->a = RegisterCountSet(rel, std::move(prefix));
  gc->b = RegisterCountSet(rel, std::move(last));
  gc->Init(*ws_);
  GroupCounter* raw = gc.get();
  counters_.push_back(std::move(gc));
  counters_by_rel_[rel].push_back(raw);
  counter_index_.emplace(std::move(key), raw);
  return CountSource{&raw->alive_groups, &raw->group_of};
}

IncrementalVerifier::GroupTracker* IncrementalVerifier::RegisterTracker(
    RelId rel, const std::vector<AttrId>& cols) {
  auto key = std::make_pair(rel, cols);
  auto it = tracker_index_.find(key);
  if (it != tracker_index_.end()) return it->second;
  auto gt = std::make_unique<GroupTracker>();
  gt->rel = rel;
  gt->p = RegisterColset(rel, cols);
  gt->Init(*ws_);  // no subscribers yet: no callbacks fire
  GroupTracker* raw = gt.get();
  trackers_.push_back(std::move(gt));
  trackers_by_rel_[rel].push_back(raw);
  tracker_index_.emplace(std::move(key), raw);
  return raw;
}

void IncrementalVerifier::Subscribe(RelId rel, WatchId id) {
  by_rel_[rel].push_back(id);
}

WatchId IncrementalVerifier::Watch(const Dependency& dep) {
  auto it = index_.find(dep);
  if (it != index_.end()) return it->second;
  Status st = Validate(ws_->scheme(), dep);
  CCFP_CHECK_MSG(st.ok(), st.ToString().c_str());
  // Align the cursors first: the new watcher's Init reads current state,
  // so pending events must not be replayed into it later.
  CatchUp();
  WatchId id = watchers_.size();
  switch (dep.kind()) {
    case DependencyKind::kFd: {
      auto w = std::make_unique<FdWatcher>(dep);
      const Fd& fd = dep.fd();
      std::vector<AttrId> lhs = SortedUnique(fd.lhs);
      std::vector<AttrId> comb = lhs;
      comb.insert(comb.end(), fd.rhs.begin(), fd.rhs.end());
      w->lhs_alive = RegisterCountSet(fd.rel, std::move(lhs)).alive;
      w->comb_alive =
          RegisterCountSet(fd.rel, SortedUnique(std::move(comb))).alive;
      watchers_.push_back(std::move(w));
      break;
    }
    case DependencyKind::kInd: {
      const Ind& ind = dep.ind();
      auto w = std::make_unique<IndWatcher>(dep, ind);
      if (ind.lhs_rel == ind.rhs_rel && ind.lhs == ind.rhs) {
        // Both sides are the same projection: trivially satisfied, and
        // sharing one tracker for both roles would double-count.
        w->trivial = true;
        watchers_.push_back(std::move(w));
        break;
      }
      w->lhs_p = RegisterColset(ind.lhs_rel, ind.lhs);
      w->rhs_p = RegisterColset(ind.rhs_rel, ind.rhs);
      w->lt = RegisterTracker(ind.lhs_rel, ind.lhs);
      w->rt = RegisterTracker(ind.rhs_rel, ind.rhs);
      w->lt->subs.push_back(GroupTracker::Sub{w.get(), true});
      w->rt->subs.push_back(GroupTracker::Sub{w.get(), false});
      watchers_.push_back(std::move(w));
      break;
    }
    case DependencyKind::kRd: {
      auto w = std::make_unique<RdWatcher>(dep, dep.rd());
      Subscribe(dep.rd().rel, id);
      watchers_.push_back(std::move(w));
      break;
    }
    case DependencyKind::kEmvd: {
      const Emvd& e = dep.emvd();
      auto w = std::make_unique<EmvdWatcher>(dep, e.rel, e.x, e.y, e.z);
      w->x_p = RegisterColset(e.rel, e.x);
      w->xy_p = RegisterColset(e.rel, w->xy);
      w->xz_p = RegisterColset(e.rel, w->xz);
      Subscribe(e.rel, id);
      watchers_.push_back(std::move(w));
      break;
    }
    case DependencyKind::kMvd: {
      const Mvd& m = dep.mvd();
      auto w = std::make_unique<EmvdWatcher>(
          dep, m.rel, m.x, m.y, MvdComplement(ws_->scheme(), m));
      w->x_p = RegisterColset(m.rel, m.x);
      w->xy_p = RegisterColset(m.rel, w->xy);
      w->xz_p = RegisterColset(m.rel, w->xz);
      Subscribe(m.rel, id);
      watchers_.push_back(std::move(w));
      break;
    }
  }
  watchers_.back()->Init(*ws_);
  index_.emplace(dep, id);
  return id;
}

const Dependency& IncrementalVerifier::dependency(WatchId id) const {
  return watchers_[id]->dep;
}

void IncrementalVerifier::CatchUpRelation(RelId rel) {
  std::uint64_t end = ws_->EventCount(rel);
  if (cursor_[rel] == end) return;
  // Partitions first: event handlers read group ids for event slots, so
  // every cached partition over the relation must cover the store.
  ws_->ExtendAllPartitions(rel);
  const std::vector<WatchId>& subs = by_rel_[rel];
  const std::vector<GroupCounter*>& gcs = counters_by_rel_[rel];
  const std::vector<GroupTracker*>& gts = trackers_by_rel_[rel];
  std::uint64_t base = ws_->FeedBase(rel);
  // The registered cursor pins compaction, so the unread suffix is always
  // retained.
  CCFP_CHECK(cursor_[rel] >= base);
  const std::vector<WorkspaceEvent>& log = ws_->events(rel);
  std::uint64_t from = cursor_[rel] - base;
  stats_.events_consumed += log.size() - from;
  // Consumer-outer iteration: each counter / tracker / watcher replays
  // the whole delta with its own state hot instead of being re-fetched
  // per event, and counters run in creation order so composed layers
  // read already-caught-up sources. Trackers run after counters and
  // before the subscribed watchers.
  for (GroupCounter* gc : gcs) {
    for (std::uint64_t i = from; i < log.size(); ++i) {
      ++stats_.watcher_events;
      gc->Apply(log[i].idx);
    }
  }
  for (GroupTracker* gt : gts) {
    for (std::uint64_t i = from; i < log.size(); ++i) {
      ++stats_.watcher_events;
      gt->Apply(log[i].idx);
    }
  }
  for (WatchId w : subs) {
    for (std::uint64_t i = from; i < log.size(); ++i) {
      ++stats_.watcher_events;
      watchers_[w]->OnEvent(*ws_, rel, log[i]);
    }
  }
  cursor_[rel] = end;
  ws_->AdvanceFeedCursor(feed_cursor_, rel, end);
  ++stats_.catch_ups;
}

void IncrementalVerifier::CatchUp() {
  for (RelId rel = 0; rel < ws_->scheme().size(); ++rel) {
    CatchUpRelation(rel);
  }
}

Status IncrementalVerifier::CatchUp(const Budget& budget) {
  for (RelId rel = 0; rel < ws_->scheme().size(); ++rel) {
    if (cursor_[rel] == ws_->EventCount(rel)) continue;
    if (FaultFires(FaultSite::kWatcherGrow)) {
      return Status::ResourceExhausted(
          "injected watcher growth failure during CatchUp");
    }
    if (budget.Expired()) {
      return Status::ResourceExhausted("verifier CatchUp deadline exceeded");
    }
    if (budget.bytes != UINT64_MAX &&
        ws_->MemoryUsage().Total() + MemoryBytes() > budget.bytes) {
      return Status::ResourceExhausted("verifier byte ceiling exceeded");
    }
    CatchUpRelation(rel);
  }
  return Status::OK();
}

std::uint64_t IncrementalVerifier::MemoryBytes() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<GroupCounter>& gc : counters_) {
    total += gc->bytes();
  }
  for (const std::unique_ptr<GroupTracker>& gt : trackers_) {
    total += gt->bytes();
  }
  for (const std::unique_ptr<Watcher>& w : watchers_) {
    total += w->bytes();
  }
  return total;
}

bool IncrementalVerifier::Satisfies(WatchId id) {
  CCFP_CHECK(id < watchers_.size());
  CatchUp();
  return watchers_[id]->ok();
}

std::optional<IdViolation> IncrementalVerifier::FindViolation(WatchId id) {
  if (Satisfies(id)) return std::nullopt;
  ++stats_.sweep_fallbacks;
  // The counters said "violated"; the sweep engine extracts the exact
  // witness the differential reference would report.
  return ws_->FindViolation(watchers_[id]->dep);
}

std::optional<std::string> ObeysExactlyWatchedIds(
    IncrementalVerifier& verifier, const std::vector<Dependency>& universe,
    const std::vector<bool>& expected, const std::vector<WatchId>& ids) {
  verifier.CatchUp();
  const DatabaseScheme& scheme = verifier.workspace().scheme();
  for (std::size_t i = 0; i < universe.size(); ++i) {
    bool holds = verifier.Satisfies(ids[i]);
    if (holds == expected[i]) continue;
    return holds ? StrCat("database obeys ", universe[i].ToString(scheme),
                          " which is outside the expected set")
                 : StrCat("database violates ",
                          universe[i].ToString(scheme),
                          " which is inside the expected set");
  }
  return std::nullopt;
}

}  // namespace ccfp
