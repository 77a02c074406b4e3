#ifndef CCFP_CORE_INTERN_H_
#define CCFP_CORE_INTERN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/flat_table.h"
#include "core/value.h"

namespace ccfp {

/// Dense id of an interned Value inside one interning scope (an
/// InternedWorkspace, a bounded-search key table, ...).
using ValueId = std::uint32_t;

/// Interns `Value`s into dense uint32 ids so hot loops (the chase, the
/// interned model checker in core/workspace.h) work on flat integer arrays
/// instead of rehashing heap `Value` objects. Ids are assigned in interning
/// order, so a deterministic input order yields a deterministic id
/// assignment.
///
/// ## Ascending nulls
///
/// Every other value is indexed by a `FlatSlotTable` of ids (core/
/// flat_table.h), keyed by its mixed `Value::Hash()` and compared through
/// the value vector, so interning allocates no node per value.
///
/// A labeled null whose label is above every null label interned so far
/// cannot collide with anything, so it skips the hash table: it goes into
/// a label-ascending side vector, and a null lookup binary-searches that
/// vector before probing the table. Every fresh null lands there, so the
/// chase's per-tuple nulls cost a vector append and no table slot;
/// `Intern(Value::Null(L))` still finds them. The placement depends only
/// on the sequence of values interned, so a snapshot restore that
/// re-interns the table in id order rebuilds the same layout.
///
/// ## Shared frozen base (copy-on-write extension)
///
/// `Freeze()` seals the current contents into an immutable, reference-
/// counted base table. A frozen interner keeps interning: new values land
/// in a local extension whose ids continue the dense sequence, and lookups
/// probe the base first (ids never change across a freeze). Copying a
/// frozen interner copies only the local extension and a refcount bump on
/// the base — the substrate trick behind InternedWorkspace::Fork(), where
/// the Nth session over a scheme shares one value table instead of
/// duplicating it. Freezing is a representation change only: every public
/// observation (ids, values, size, the null watermark) is unaffected.
class ValueInterner {
 public:
  /// One ascending null: its label and id.
  struct NullEntry {
    std::uint64_t label = 0;
    ValueId id = 0;
  };

  /// Returns the id of `v`, interning it on first sight. A null labeled
  /// above every interned null label (each label ReserveNullLabels hands
  /// out, interned in ascending order) is appended without any hashing.
  ValueId Intern(const Value& v);

  /// Reserves `n` consecutive labels above every label seen so far and
  /// returns the first. Nothing is interned: the caller interns the
  /// labels it keeps, in ascending order.
  std::uint64_t ReserveNullLabels(std::uint64_t n) {
    std::uint64_t first = next_null_label_;
    next_null_label_ += n;
    return first;
  }

  /// Makes sure future fresh nulls are numbered strictly above `label`.
  void NoteNullLabel(std::uint64_t label);

  /// Restore-path append: interns `v` asserting it is unseen. Returns
  /// false (without interning) when `v` is already present — snapshot
  /// restores treat that as corruption. Places `v` exactly as Intern
  /// would, and does not touch the null watermark (restores set it
  /// explicitly).
  bool InternNew(const Value& v);

  /// Seals the current contents (base + local extension) into a new
  /// immutable shared base; the local extension empties. Idempotent when
  /// nothing was interned since the last freeze. O(size) once; every
  /// subsequent copy of this interner is O(local extension).
  void Freeze();

  /// True when a frozen base is attached (size of the base table is
  /// `base_size()`; local ids start there).
  bool has_shared_base() const { return base_ != nullptr; }
  std::size_t base_size() const { return base_size_; }

  const Value& value(ValueId id) const {
    return id < base_size_ ? base_->values[id] : values_[id - base_size_];
  }
  bool is_const(ValueId id) const { return !value(id).is_null(); }
  std::uint64_t null_label(ValueId id) const { return value(id).null_id(); }
  std::size_t size() const { return base_size_ + values_.size(); }
  /// Values held as ascending nulls (base and local extension); the other
  /// size() - ascending_nulls() sit in the hash tables.
  std::size_t ascending_nulls() const {
    return base_ascending_nulls() + nulls_.size();
  }
  /// The ascending nulls of the frozen base (ids below base_size()).
  std::size_t base_ascending_nulls() const {
    return base_ != nullptr ? base_->nulls.size() : 0;
  }

  /// Logical bytes of the value table: every value, the slot arrays of
  /// the hash tables and the ascending-null vectors, base and local.
  std::uint64_t TableBytes() const;
  /// The part of TableBytes() held by the frozen base (0 before Freeze),
  /// which every copy of this interner shares.
  std::uint64_t SharedTableBytes() const;

 private:
  friend class WorkspaceSnapshotAccess;  ///< serialization (core/snapshot.h)

  /// The sealed table: values in id order plus their reverse index (the
  /// hash table of ids for everything but the ascending nulls). Immutable
  /// after construction; shared across forks by shared_ptr.
  struct Frozen {
    std::vector<Value> values;
    FlatSlotTable ids;
    std::vector<NullEntry> nulls;  ///< label-ascending
  };

  /// The table hash of `v`: Value::Hash() avalanched, so the low bits a
  /// FlatSlotTable probes with depend on the whole value.
  static std::uint64_t TableHash(const Value& v) {
    return MixHash(static_cast<std::uint64_t>(v.Hash()));
  }

  /// True when `label` is above every interned null label: such a null is
  /// absent everywhere and joins the ascending nulls. (The largest null
  /// label interned is always an ascending null's.)
  bool AboveAllNulls(std::uint64_t label) const;
  /// The ascending null labeled `label`, or nullptr.
  const NullEntry* FindAscendingNull(std::uint64_t label) const;
  /// Sets `*id` to the id of `v` and returns true when `v` is interned.
  bool Lookup(const Value& v, ValueId* id) const;
  /// Appends `v` (known absent) to the local extension and returns its id.
  ValueId Append(const Value& v);

  std::shared_ptr<const Frozen> base_;  ///< null until the first Freeze
  ValueId base_size_ = 0;               ///< == base_->values.size()
  /// Local extension: entry i holds the value with id base_size_ + i.
  std::vector<Value> values_;
  /// Ids (>= base_size_) of the local values that are not ascending nulls.
  FlatSlotTable ids_;
  /// Local ascending nulls, every label above the base's.
  std::vector<NullEntry> nulls_;
  std::uint64_t next_null_label_ = 1;
};

/// Array-based union-find over dense value ids with *iterative path
/// halving* — no recursion, so arbitrarily long merge chains cannot blow
/// the stack (the failure mode of the old map-based ValueUnion).
///
/// The *structural* union is by class size (smaller class under larger),
/// which is what keeps the engine's change-propagation near-linear: the
/// caller re-visits only the losing side, and with union-by-size each
/// element loses O(log n) times total. The chase's *merge semantics* —
/// a constant beats a labeled null, between nulls the lower label wins,
/// two distinct constants clash — live in a per-class representative
/// (`Rep`), deliberately decoupled from the tree shape so a semantically
/// dominant value never forces the large class to be the one re-visited.
class DenseUnionFind {
 public:
  struct UnionResult {
    ValueId winner = 0;   ///< structural winner (root of the merged class)
    ValueId loser = 0;    ///< structural loser (its refs need re-visiting)
    bool merged = false;  ///< false when already equal or on clash
    bool clash = false;   ///< true when two distinct constants met
  };

  /// Grows the arrays to cover every id the interner has handed out.
  void EnsureSize(std::size_t n) {
    while (parent_.size() < n) {
      ValueId id = static_cast<ValueId>(parent_.size());
      parent_.push_back(id);
      size_.push_back(1);
      rep_.push_back(id);
    }
  }

  ValueId Find(ValueId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// The semantically preferred member of x's class: its constant if one
  /// was merged in, else its lowest-labeled null. This is what the class
  /// prints as — identical to the restart-scan reference chase's merge
  /// preference (tests/reference/chase.h).
  ValueId Rep(ValueId x) { return rep_[Find(x)]; }

  UnionResult Union(ValueId a, ValueId b, const ValueInterner& interner);

  std::size_t size() const { return parent_.size(); }

 private:
  friend class WorkspaceSnapshotAccess;  ///< serialization (core/snapshot.h)

  std::vector<ValueId> parent_;
  std::vector<std::uint32_t> size_;
  std::vector<ValueId> rep_;  ///< per root: semantic representative
};

}  // namespace ccfp

#endif  // CCFP_CORE_INTERN_H_
