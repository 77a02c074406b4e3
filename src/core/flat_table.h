#ifndef CCFP_CORE_FLAT_TABLE_H_
#define CCFP_CORE_FLAT_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace ccfp {

/// The final avalanche of HashIds, for a hash computed elsewhere (such as
/// `Value::Hash()`, whose int case is the identity) before a FlatSlotTable
/// probes its low bits.
inline std::uint64_t MixHash(std::uint64_t h) {
  h ^= h >> 32;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 29;
  return h;
}

/// Hash of a run of `n` dense ids (value ids, tuple rows): a multiply-xor
/// chain with a final avalanche, so the low bits a power-of-two table
/// probes with depend on every id.
inline std::uint64_t HashIds(const std::uint32_t* ids, std::size_t n) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ ids[i]) * 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  }
  return MixHash(h);
}

/// Open-addressed table of (hash, payload) slots: linear probing over a
/// power-of-two array kept at most half full, backward-shift erase (no
/// tombstones). It stores no keys. A payload names where its key lives —
/// a tuple slot of the workspace store, an entry of an IdKeySet arena —
/// and lookups compare through a caller predicate on payloads. Growing
/// rehashes from the stored hashes alone, so no key is ever re-read.
class FlatSlotTable {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// The payload whose key `eq` accepts among those stored under `hash`,
  /// or kNone.
  template <typename Eq>
  std::uint32_t Find(std::uint64_t hash, Eq&& eq) const {
    if (size_ == 0) return kNone;
    std::size_t mask = slots_.size() - 1;
    std::uint32_t tag = static_cast<std::uint32_t>(hash);
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.payload == kNone) return kNone;
      if (s.tag == tag && eq(s.payload)) return s.payload;
    }
  }

  /// Stores `payload` under `hash` unless `eq` accepts a stored payload;
  /// returns {that payload, false} or {payload, true}. `payload` must not
  /// be kNone.
  template <typename Eq>
  std::pair<std::uint32_t, bool> Insert(std::uint64_t hash,
                                        std::uint32_t payload, Eq&& eq) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    std::size_t mask = slots_.size() - 1;
    std::uint32_t tag = static_cast<std::uint32_t>(hash);
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.payload == kNone) {
        s = Slot{tag, payload};
        ++size_;
        return {payload, true};
      }
      if (s.tag == tag && eq(s.payload)) return {s.payload, false};
    }
  }

  /// Removes `payload`, stored under `hash`, if present.
  void Erase(std::uint64_t hash, std::uint32_t payload) {
    if (size_ == 0) return;
    std::size_t mask = slots_.size() - 1;
    std::uint32_t tag = static_cast<std::uint32_t>(hash);
    std::size_t i = tag & mask;
    while (slots_[i].payload != payload) {
      if (slots_[i].payload == kNone) return;
      i = (i + 1) & mask;
    }
    // Backward shift: pull each later member of the probe run into the
    // hole unless its home lies cyclically in (hole, member].
    for (std::size_t j = (i + 1) & mask; slots_[j].payload != kNone;
         j = (j + 1) & mask) {
      std::size_t home = slots_[j].tag & mask;
      bool stays = i <= j ? (i < home && home <= j) : (i < home || home <= j);
      if (stays) continue;
      slots_[i] = slots_[j];
      i = j;
    }
    slots_[i] = Slot{};
    --size_;
  }

  /// Logical bytes of the slot array (the table's only allocation).
  std::uint64_t bytes() const { return slots_.size() * sizeof(Slot); }

 private:
  struct Slot {
    std::uint32_t tag = 0;  ///< low 32 bits of the key's hash
    std::uint32_t payload = kNone;
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, old.size() * 2), Slot{});
    std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.payload == kNone) continue;
      std::size_t i = s.tag & mask;
      while (slots_[i].payload != kNone) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Insert-only set of fixed-width id keys, numbered in insertion order.
/// Keys live back to back in one arena (entry e holds ids [e * width,
/// (e + 1) * width)), and a FlatSlotTable indexes the entries, so an
/// insert appends to two flat vectors and never allocates a node, a key is
/// readable by its entry number, and a copy is two vector copies. The
/// workspace partitions use it with group id == entry.
class IdKeySet {
 public:
  static constexpr std::uint32_t kNone = FlatSlotTable::kNone;

  explicit IdKeySet(std::size_t width = 0) : width_(width) {}

  std::size_t width() const { return width_; }
  /// Number of entries (distinct keys inserted so far).
  std::uint32_t size() const { return size_; }

  /// Entry `entry`'s key: `width()` ids.
  const std::uint32_t* key(std::uint32_t entry) const {
    return keys_.data() + static_cast<std::size_t>(entry) * width_;
  }

  /// The entry holding `key` (`width` ids), or kNone.
  std::uint32_t Find(const std::uint32_t* key) const {
    return index_.Find(HashIds(key, width_), Matches{this, key});
  }

  /// The entry holding `key`, adding it as entry size() on first sight;
  /// `.second` says whether it was added. `key` must not point into this
  /// set's own arena.
  std::pair<std::uint32_t, bool> Insert(const std::uint32_t* key) {
    auto found = index_.Insert(HashIds(key, width_), size_, Matches{this, key});
    if (found.second) {
      keys_.insert(keys_.end(), key, key + width_);
      ++size_;
    }
    return found;
  }

  /// Logical bytes: the key arena plus the index's slot array.
  std::uint64_t bytes() const {
    return keys_.size() * sizeof(std::uint32_t) + index_.bytes();
  }

 private:
  /// FlatSlotTable predicate: does arena entry `e` hold `key`?
  struct Matches {
    const IdKeySet* set;
    const std::uint32_t* key;
    bool operator()(std::uint32_t e) const {
      return std::equal(key, key + set->width_, set->key(e));
    }
  };

  std::size_t width_;
  std::uint32_t size_ = 0;
  std::vector<std::uint32_t> keys_;
  FlatSlotTable index_;
};

/// Insert-only map from fixed-width id keys to one uint32 value each (an
/// IdKeySet plus one value per entry). The chase's per-FD lhs-key index
/// uses it.
class IdKeyTable {
 public:
  static constexpr std::uint32_t kNone = IdKeySet::kNone;

  explicit IdKeyTable(std::size_t width = 0) : keys_(width) {}

  /// The entry holding `key` (`width` ids), or kNone.
  std::uint32_t Find(const std::uint32_t* key) const {
    return keys_.Find(key);
  }

  /// The entry holding `key`, adding it with `value` on first sight;
  /// `.second` says whether it was added.
  std::pair<std::uint32_t, bool> Insert(const std::uint32_t* key,
                                        std::uint32_t value) {
    auto found = keys_.Insert(key);
    if (found.second) values_.push_back(value);
    return found;
  }

  std::uint32_t value(std::uint32_t entry) const { return values_[entry]; }
  void set_value(std::uint32_t entry, std::uint32_t value) {
    values_[entry] = value;
  }

 private:
  IdKeySet keys_;
  std::vector<std::uint32_t> values_;
};

}  // namespace ccfp

#endif  // CCFP_CORE_FLAT_TABLE_H_
