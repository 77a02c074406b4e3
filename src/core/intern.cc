#include "core/intern.h"

#include <algorithm>

namespace ccfp {

bool ValueInterner::AboveAllNulls(std::uint64_t label) const {
  if (!nulls_.empty()) return label > nulls_.back().label;
  if (base_ != nullptr && !base_->nulls.empty()) {
    return label > base_->nulls.back().label;
  }
  return true;
}

const ValueInterner::NullEntry* ValueInterner::FindAscendingNull(
    std::uint64_t label) const {
  // Local labels are all above the base's, so one vector can hold it.
  const std::vector<NullEntry>* v = &nulls_;
  if (base_ != nullptr && !base_->nulls.empty() &&
      label <= base_->nulls.back().label) {
    v = &base_->nulls;
  }
  auto it = std::lower_bound(
      v->begin(), v->end(), label,
      [](const NullEntry& e, std::uint64_t l) { return e.label < l; });
  return it != v->end() && it->label == label ? &*it : nullptr;
}

ValueId ValueInterner::Append(const Value& v) {
  ValueId id = base_size_ + static_cast<ValueId>(values_.size());
  values_.push_back(v);
  if (v.is_null() && AboveAllNulls(v.null_id())) {
    nulls_.push_back(NullEntry{v.null_id(), id});
  } else {
    ids_.emplace(v, id);
  }
  return id;
}

bool ValueInterner::Lookup(const Value& v, ValueId* id) const {
  if (v.is_null()) {
    if (AboveAllNulls(v.null_id())) return false;  // absent everywhere
    if (const NullEntry* e = FindAscendingNull(v.null_id())) {
      *id = e->id;
      return true;
    }
  }
  if (base_ != nullptr) {
    auto bit = base_->ids.find(v);
    if (bit != base_->ids.end()) {
      *id = bit->second;
      return true;
    }
  }
  auto it = ids_.find(v);
  if (it == ids_.end()) return false;
  *id = it->second;
  return true;
}

ValueId ValueInterner::Intern(const Value& v) {
  ValueId id = 0;
  if (Lookup(v, &id)) return id;
  if (v.is_null()) NoteNullLabel(v.null_id());
  return Append(v);
}

bool ValueInterner::InternNew(const Value& v) {
  ValueId id = 0;
  if (Lookup(v, &id)) return false;
  Append(v);
  return true;
}

void ValueInterner::Freeze() {
  if (values_.empty() && base_ != nullptr) return;  // nothing new to seal
  auto frozen = std::make_shared<Frozen>();
  frozen->values.reserve(size());
  if (base_ != nullptr) {
    frozen->values = base_->values;
    frozen->ids = base_->ids;
    frozen->nulls = base_->nulls;
  }
  for (Value& v : values_) frozen->values.push_back(std::move(v));
  frozen->ids.insert(ids_.begin(), ids_.end());
  frozen->nulls.insert(frozen->nulls.end(), nulls_.begin(), nulls_.end());
  base_size_ = static_cast<ValueId>(frozen->values.size());
  base_ = std::move(frozen);
  values_.clear();
  ids_.clear();
  nulls_.clear();
}

void ValueInterner::NoteNullLabel(std::uint64_t label) {
  if (label >= next_null_label_) next_null_label_ = label + 1;
}

DenseUnionFind::UnionResult DenseUnionFind::Union(
    ValueId a, ValueId b, const ValueInterner& interner) {
  UnionResult result;
  ValueId ra = Find(a), rb = Find(b);
  if (ra == rb) {
    result.winner = ra;
    result.loser = ra;
    return result;
  }
  // Semantic representative of the merged class.
  ValueId pa = rep_[ra], pb = rep_[rb];
  bool a_const = interner.is_const(pa);
  bool b_const = interner.is_const(pb);
  if (a_const && b_const) {
    // Distinct classes can only hold distinct constants (a constant has
    // one id, and an id is in one class) — so this is always a clash.
    result.clash = true;
    return result;
  }
  ValueId rep;
  if (a_const) {
    rep = pa;
  } else if (b_const) {
    rep = pb;
  } else {
    rep = interner.null_label(pa) < interner.null_label(pb) ? pa : pb;
  }
  // Structural union by size; ties break toward the lower root id so the
  // result is deterministic.
  if (size_[ra] > size_[rb] || (size_[ra] == size_[rb] && ra < rb)) {
    result.winner = ra;
    result.loser = rb;
  } else {
    result.winner = rb;
    result.loser = ra;
  }
  parent_[result.loser] = result.winner;
  size_[result.winner] += size_[result.loser];
  rep_[result.winner] = rep;
  result.merged = true;
  return result;
}

}  // namespace ccfp
