#include "search/bounded.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "util/check.h"

namespace ccfp {

namespace {

std::uint64_t SatMul(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > ~std::uint64_t{0} / a) return ~std::uint64_t{0};
  return a * b;
}

std::uint64_t SatAdd(std::uint64_t a, std::uint64_t b) {
  return a > ~std::uint64_t{0} - b ? ~std::uint64_t{0} : a + b;
}

/// ------------------------------------------------------------------------
/// Id-space engine (see bounded.h for the strategy overview). Tuples are
/// integer codes; each dependency is compiled into a state machine with
/// precomputed per-code projection keys and O(1) incremental counters.
/// ------------------------------------------------------------------------

/// Caps the priced key tables and counter arrays of one search (see
/// EstimateBoundedSearch); a shape past either cap is declined.
constexpr std::uint64_t kMaxTableEntries = 1u << 24;
/// Caps every tuple space and counter key space, so a code or a key
/// always fits the uint32 tables.
constexpr std::uint64_t kMaxTupleSpace = 1u << 20;

constexpr const char* kEngine = "bounded-search (id-space)";

/// Incrementally maintained satisfaction state of one dependency. Include
/// and Exclude must be called with every code change of every relation the
/// dependency involves; Exclude must exactly reverse the matching Include.
class DepState {
 public:
  virtual ~DepState() = default;
  virtual void Include(RelId rel, std::uint32_t code) = 0;
  virtual void Exclude(RelId rel, std::uint32_t code) = 0;
  virtual bool Satisfied() const = 0;
  /// True when a violation can never be cured by inserting more tuples
  /// (FDs and RDs) — enables mid-relation subtree pruning for premises.
  virtual bool MonotoneViolation() const { return false; }
};

/// Precomputes, for every code of relation `rel`'s tuple space, the packed
/// base-`domain` key of the projection onto `cols`.
std::vector<std::uint32_t> KeyTable(std::uint64_t space_size,
                                    std::size_t domain,
                                    const std::vector<AttrId>& cols,
                                    const std::vector<std::uint64_t>& pow) {
  std::vector<std::uint32_t> keys(space_size);
  for (std::uint64_t code = 0; code < space_size; ++code) {
    std::uint64_t key = 0;
    std::uint64_t mult = 1;
    for (AttrId c : cols) {
      key += ((code / pow[c]) % domain) * mult;
      mult *= domain;
    }
    keys[code] = static_cast<std::uint32_t>(key);
  }
  return keys;
}

std::uint64_t KeySpace(std::size_t domain, std::size_t width) {
  std::uint64_t s = 1;
  for (std::size_t i = 0; i < width; ++i) s *= domain;
  return s;
}

/// An FD counts distinct (lhs, rhs) pairs through their one-to-one image,
/// the lhs ∪ rhs projection, so its pair counter is sized by that set's
/// key space, never by the concatenated columns'.
class FdState : public DepState {
 public:
  FdState(std::size_t lhs_width, std::size_t pair_width, std::size_t domain,
          const std::vector<std::uint32_t>& lhs_key,
          const std::vector<std::uint32_t>& pair_key)
      : lhs_key_(&lhs_key), pair_key_(&pair_key) {
    distinct_rhs_.assign(KeySpace(domain, lhs_width), 0);
    pair_cnt_.assign(KeySpace(domain, pair_width), 0);
  }

  void Include(RelId, std::uint32_t code) override {
    if (pair_cnt_[(*pair_key_)[code]]++ == 0) {
      if (++distinct_rhs_[(*lhs_key_)[code]] == 2) ++violated_;
    }
  }
  void Exclude(RelId, std::uint32_t code) override {
    if (--pair_cnt_[(*pair_key_)[code]] == 0) {
      if (--distinct_rhs_[(*lhs_key_)[code]] == 1) --violated_;
    }
  }
  bool Satisfied() const override { return violated_ == 0; }
  bool MonotoneViolation() const override { return true; }

 private:
  const std::vector<std::uint32_t>* lhs_key_;
  const std::vector<std::uint32_t>* pair_key_;
  std::vector<std::uint32_t> distinct_rhs_, pair_cnt_;
  std::uint64_t violated_ = 0;
};

class RdState : public DepState {
 public:
  RdState(const Rd& rd, std::uint64_t space, std::size_t domain,
          const std::vector<std::uint64_t>& pow) {
    bad_.resize(space, 0);
    for (std::uint64_t code = 0; code < space; ++code) {
      for (std::size_t i = 0; i < rd.lhs.size(); ++i) {
        if ((code / pow[rd.lhs[i]]) % domain !=
            (code / pow[rd.rhs[i]]) % domain) {
          bad_[code] = 1;
          break;
        }
      }
    }
  }

  void Include(RelId, std::uint32_t code) override {
    violated_ += bad_[code];
  }
  void Exclude(RelId, std::uint32_t code) override {
    violated_ -= bad_[code];
  }
  bool Satisfied() const override { return violated_ == 0; }
  bool MonotoneViolation() const override { return true; }

 private:
  std::vector<std::uint8_t> bad_;
  std::uint64_t violated_ = 0;
};

class IndState : public DepState {
 public:
  IndState(const Ind& ind, std::size_t domain,
           const std::vector<std::uint32_t>& lhs_key,
           const std::vector<std::uint32_t>& rhs_key)
      : lhs_rel_(ind.lhs_rel),
        rhs_rel_(ind.rhs_rel),
        lhs_key_(&lhs_key),
        rhs_key_(&rhs_key) {
    std::uint64_t keys = KeySpace(domain, ind.width());
    lhs_cnt_.assign(keys, 0);
    rhs_cnt_.assign(keys, 0);
  }

  void Include(RelId rel, std::uint32_t code) override {
    if (rel == rhs_rel_) {
      std::uint32_t k = (*rhs_key_)[code];
      if (rhs_cnt_[k]++ == 0 && lhs_cnt_[k] > 0) --missing_;
    }
    if (rel == lhs_rel_) {
      std::uint32_t k = (*lhs_key_)[code];
      if (lhs_cnt_[k]++ == 0 && rhs_cnt_[k] == 0) ++missing_;
    }
  }
  void Exclude(RelId rel, std::uint32_t code) override {
    // Exact reverse order of Include.
    if (rel == lhs_rel_) {
      std::uint32_t k = (*lhs_key_)[code];
      if (--lhs_cnt_[k] == 0 && rhs_cnt_[k] == 0) --missing_;
    }
    if (rel == rhs_rel_) {
      std::uint32_t k = (*rhs_key_)[code];
      if (--rhs_cnt_[k] == 0 && lhs_cnt_[k] > 0) ++missing_;
    }
  }
  bool Satisfied() const override { return missing_ == 0; }

 private:
  RelId lhs_rel_, rhs_rel_;
  const std::vector<std::uint32_t>* lhs_key_;
  const std::vector<std::uint32_t>* rhs_key_;
  std::vector<std::uint32_t> lhs_cnt_, rhs_cnt_;
  std::uint64_t missing_ = 0;
};

/// The projections an EMVD X ->> Y | Z (an MVD: Z is its complement)
/// keys its counters by. Distinct (XY, XZ) pairs are exactly the distinct
/// XYZ projections, so the pair counter is keyed by the union.
struct EmvdCols {
  RelId rel = 0;
  std::vector<AttrId> x, xy, xz, xyz;
};

EmvdCols EmvdColumns(const DatabaseScheme& scheme, const Dependency& dep) {
  EmvdCols c;
  if (dep.is_emvd()) {
    const Emvd& e = dep.emvd();
    c.rel = e.rel;
    c.x = e.x;
    c.xy = AppendDistinctAttrs(e.x, e.y);
    c.xz = AppendDistinctAttrs(e.x, e.z);
  } else {
    const Mvd& m = dep.mvd();
    c.rel = m.rel;
    c.x = m.x;
    c.xy = AppendDistinctAttrs(m.x, m.y);
    c.xz = AppendDistinctAttrs(m.x, MvdComplement(scheme, m));
  }
  c.xyz = AppendDistinctAttrs(c.xy, c.xz);
  return c;
}

class EmvdState : public DepState {
 public:
  EmvdState(const EmvdCols& cols, std::size_t domain,
            const std::vector<std::uint32_t>& x_key,
            const std::vector<std::uint32_t>& xy_key,
            const std::vector<std::uint32_t>& xz_key,
            const std::vector<std::uint32_t>& pair_key)
      : x_key_(&x_key),
        xy_key_(&xy_key),
        xz_key_(&xz_key),
        pair_key_(&pair_key) {
    ny_.assign(KeySpace(domain, cols.x.size()), 0);
    nz_.assign(ny_.size(), 0);
    np_.assign(ny_.size(), 0);
    cnt_xy_.assign(KeySpace(domain, cols.xy.size()), 0);
    cnt_xz_.assign(KeySpace(domain, cols.xz.size()), 0);
    cnt_pair_.assign(KeySpace(domain, cols.xyz.size()), 0);
  }

  void Include(RelId, std::uint32_t code) override {
    std::uint32_t g = (*x_key_)[code];
    bool bad_before = Bad(g);
    if (cnt_xy_[(*xy_key_)[code]]++ == 0) ++ny_[g];
    if (cnt_xz_[(*xz_key_)[code]]++ == 0) ++nz_[g];
    if (cnt_pair_[(*pair_key_)[code]]++ == 0) ++np_[g];
    violated_ += static_cast<int>(Bad(g)) - static_cast<int>(bad_before);
  }
  void Exclude(RelId, std::uint32_t code) override {
    std::uint32_t g = (*x_key_)[code];
    bool bad_before = Bad(g);
    if (--cnt_xy_[(*xy_key_)[code]] == 0) --ny_[g];
    if (--cnt_xz_[(*xz_key_)[code]] == 0) --nz_[g];
    if (--cnt_pair_[(*pair_key_)[code]] == 0) --np_[g];
    violated_ += static_cast<int>(Bad(g)) - static_cast<int>(bad_before);
  }
  bool Satisfied() const override { return violated_ == 0; }

 private:
  /// An X-group is bad iff some (XY, XZ) combination lacks a witness:
  /// present pairs < distinct-XY * distinct-XZ.
  bool Bad(std::uint32_t g) const {
    return static_cast<std::uint64_t>(ny_[g]) * nz_[g] != np_[g];
  }

  const std::vector<std::uint32_t>* x_key_;
  const std::vector<std::uint32_t>* xy_key_;
  const std::vector<std::uint32_t>* xz_key_;
  const std::vector<std::uint32_t>* pair_key_;
  std::vector<std::uint32_t> ny_, nz_, cnt_xy_, cnt_xz_, cnt_pair_;
  std::vector<std::uint64_t> np_;
  std::int64_t violated_ = 0;
};

std::vector<RelId> DepRels(const Dependency& dep) {
  if (dep.is_ind()) {
    if (dep.ind().lhs_rel == dep.ind().rhs_rel) return {dep.ind().lhs_rel};
    return {dep.ind().lhs_rel, dep.ind().rhs_rel};
  }
  if (dep.is_fd()) return {dep.fd().rel};
  if (dep.is_rd()) return {dep.rd().rel};
  if (dep.is_emvd()) return {dep.emvd().rel};
  return {dep.mvd().rel};
}

class IdSpaceSearcher {
 public:
  IdSpaceSearcher(SchemePtr scheme, const std::vector<Dependency>& premises,
                  const Dependency& conclusion,
                  const BoundedSearchOptions& options)
      : scheme_(std::move(scheme)), options_(options) {
    // The caller checked EstimateBoundedSearch's id_space_feasible: every
    // tuple space and key space fits, and so do the priced tables.
    std::size_t n = scheme_->size();
    space_.resize(n);
    pow_.resize(n);
    for (RelId rel = 0; rel < n; ++rel) {
      // Cannot wrap: the estimate capped every space at kMaxTupleSpace.
      std::size_t arity = scheme_->relation(rel).arity();
      pow_[rel].resize(arity);
      std::uint64_t p = 1;
      for (std::size_t a = 0; a < arity; ++a) {
        pow_[rel][a] = p;
        p *= options_.domain_size;
      }
      space_[rel] = p;
    }

    deps_by_rel_.resize(n);
    monotone_by_rel_.resize(n);
    final_premises_by_rel_.resize(n);
    for (const Dependency& p : premises) AddDep(p, /*is_premise=*/true);
    AddDep(conclusion, /*is_premise=*/false);
    chosen_.resize(n);
  }

  BoundedSearchResult Run() {
    result_.engine = kEngine;
    Enumerate(0, 0, 0);
    result_.exhausted = !budget_hit_;
    return std::move(result_);
  }

 private:
  /// The key table for (rel, cols): served from the caller's workspace
  /// when one was passed (shared across dependencies *and* searches),
  /// otherwise compiled into this search's private arena.
  const std::vector<std::uint32_t>& Keys(RelId rel,
                                         const std::vector<AttrId>& cols) {
    if (options_.workspace != nullptr) {
      return options_.workspace->KeyTable(rel, options_.domain_size, cols,
                                          space_[rel], pow_[rel]);
    }
    owned_tables_.push_back(
        KeyTable(space_[rel], options_.domain_size, cols, pow_[rel]));
    return owned_tables_.back();
  }

  void AddDep(const Dependency& dep, bool is_premise) {
    std::unique_ptr<DepState> state;
    switch (dep.kind()) {
      case DependencyKind::kFd: {
        const Fd& fd = dep.fd();
        std::vector<AttrId> pair_cols = AppendDistinctAttrs(fd.lhs, fd.rhs);
        state = std::make_unique<FdState>(
            fd.lhs.size(), pair_cols.size(), options_.domain_size,
            Keys(fd.rel, fd.lhs), Keys(fd.rel, pair_cols));
        break;
      }
      case DependencyKind::kInd: {
        const Ind& ind = dep.ind();
        state = std::make_unique<IndState>(ind, options_.domain_size,
                                           Keys(ind.lhs_rel, ind.lhs),
                                           Keys(ind.rhs_rel, ind.rhs));
        break;
      }
      case DependencyKind::kRd:
        state = std::make_unique<RdState>(dep.rd(), space_[dep.rd().rel],
                                          options_.domain_size,
                                          pow_[dep.rd().rel]);
        break;
      case DependencyKind::kEmvd:
      case DependencyKind::kMvd: {
        EmvdCols c = EmvdColumns(*scheme_, dep);
        state = std::make_unique<EmvdState>(
            c, options_.domain_size, Keys(c.rel, c.x), Keys(c.rel, c.xy),
            Keys(c.rel, c.xz), Keys(c.rel, c.xyz));
        break;
      }
    }
    std::vector<RelId> rels = DepRels(dep);
    RelId max_rel = *std::max_element(rels.begin(), rels.end());
    for (RelId rel : rels) deps_by_rel_[rel].push_back(state.get());
    if (is_premise) {
      if (state->MonotoneViolation()) {
        for (RelId rel : rels) monotone_by_rel_[rel].push_back(state.get());
      }
      final_premises_by_rel_[max_rel].push_back(state.get());
    } else {
      conclusion_state_ = state.get();
      conclusion_ready_rel_ = max_rel;
    }
    states_.push_back(std::move(state));
  }

  void IncludeCode(RelId rel, std::uint32_t code) {
    for (DepState* d : deps_by_rel_[rel]) d->Include(rel, code);
    chosen_[rel].push_back(code);
  }
  void ExcludeCode(RelId rel, std::uint32_t code) {
    chosen_[rel].pop_back();
    for (auto it = deps_by_rel_[rel].rbegin();
         it != deps_by_rel_[rel].rend(); ++it) {
      (*it)->Exclude(rel, code);
    }
  }

  /// Relation `rel`'s tuple set is finalized for this subtree: count the
  /// partial candidate, apply final premise / conclusion pruning, and
  /// either descend into the next relation or report the counterexample.
  void Boundary(RelId rel) {
    if (++result_.candidates_tested > options_.max_candidates) {
      budget_hit_ = true;
      stop_ = true;
      return;
    }
    for (DepState* d : final_premises_by_rel_[rel]) {
      if (!d->Satisfied()) return;  // premise final and violated: prune
    }
    if (rel == conclusion_ready_rel_ && conclusion_state_->Satisfied()) {
      return;  // conclusion final and satisfied: no completion violates it
    }
    if (rel + 1 == scheme_->size()) {
      // Every premise passed its final check and the conclusion was
      // violated at its final check: a genuine counterexample.
      result_.counterexample = BuildDatabase();
      stop_ = true;
      return;
    }
    Enumerate(rel + 1, 0, 0);
  }

  /// Pre-order subset DFS over relation `rel`'s tuple-space codes, visiting
  /// the current subset as a boundary before extending it: subsets in
  /// lexicographic order of their ascending code lists.
  void Enumerate(RelId rel, std::uint32_t start, std::size_t count) {
    if (stop_) return;
    Boundary(rel);
    if (stop_ || count >= options_.max_tuples_per_relation) return;
    std::uint32_t end = static_cast<std::uint32_t>(space_[rel]);
    for (std::uint32_t code = start; code < end && !stop_; ++code) {
      IncludeCode(rel, code);
      bool dead = false;
      for (DepState* d : monotone_by_rel_[rel]) {
        if (!d->Satisfied()) {
          dead = true;  // FD/RD premise violation: monotone, prune subtree
          break;
        }
      }
      if (!dead) Enumerate(rel, code + 1, count + 1);
      ExcludeCode(rel, code);
    }
  }

  Database BuildDatabase() const {
    Database db(scheme_);
    for (RelId rel = 0; rel < scheme_->size(); ++rel) {
      for (std::uint32_t code : chosen_[rel]) {
        std::size_t arity = scheme_->relation(rel).arity();
        Tuple t(arity);
        std::uint64_t rest = code;
        for (std::size_t a = 0; a < arity; ++a) {
          t[a] = Value::Int(
              static_cast<std::int64_t>(rest % options_.domain_size));
          rest /= options_.domain_size;
        }
        db.Insert(rel, std::move(t));
      }
    }
    return db;
  }

  SchemePtr scheme_;
  BoundedSearchOptions options_;

  std::vector<std::uint64_t> space_;               // per rel: domain^arity
  std::vector<std::vector<std::uint64_t>> pow_;    // per rel, col: domain^col

  /// Key tables compiled for this search only (no workspace passed);
  /// deque so DepState pointers stay stable.
  std::deque<std::vector<std::uint32_t>> owned_tables_;
  std::vector<std::unique_ptr<DepState>> states_;
  std::vector<std::vector<DepState*>> deps_by_rel_;
  std::vector<std::vector<DepState*>> monotone_by_rel_;
  std::vector<std::vector<DepState*>> final_premises_by_rel_;
  DepState* conclusion_state_ = nullptr;
  RelId conclusion_ready_rel_ = 0;

  std::vector<std::vector<std::uint32_t>> chosen_;
  BoundedSearchResult result_;
  bool stop_ = false;
  bool budget_hit_ = false;
};

}  // namespace

BoundedSearchEstimate EstimateBoundedSearch(
    const DatabaseScheme& scheme, const std::vector<Dependency>& premises,
    const Dependency& conclusion, const BoundedSearchOptions& options) {
  BoundedSearchEstimate est;
  // Per-relation tuple-space sizes (domain^arity), saturating.
  std::vector<std::uint64_t> space(scheme.size(), 1);
  bool spaces_fit = options.domain_size <= kMaxTupleSpace;
  for (RelId rel = 0; rel < scheme.size(); ++rel) {
    std::size_t arity = scheme.relation(rel).arity();
    for (std::size_t a = 0; a < arity; ++a) {
      space[rel] = SatMul(space[rel], options.domain_size);
    }
    if (space[rel] > kMaxTupleSpace) spaces_fit = false;
  }
  // Table budget, priced by what IdSpaceSearcher allocates: one per-code
  // key table (`space` entries) per projection a dependency keys, plus
  // every counter array, sized by its own column set's key space. Tables
  // shared through a workspace are counted per use, so this stays an
  // upper bound. Dependencies are priced before they are validated (the
  // portfolio orders its ladder at construction), so a relation outside
  // the scheme prices as saturated instead of indexing past `space`.
  auto rel_space = [&](RelId rel) {
    return rel < space.size() ? space[rel] : ~std::uint64_t{0};
  };
  bool keys_fit = true;
  auto counter = [&](std::size_t width) {
    std::uint64_t keys = 1;
    for (std::size_t i = 0; i < width; ++i) {
      keys = SatMul(keys, options.domain_size);
    }
    if (keys > kMaxTupleSpace) keys_fit = false;
    return keys;
  };
  auto dep_cost = [&](const Dependency& dep) -> std::uint64_t {
    switch (dep.kind()) {
      case DependencyKind::kFd: {
        const Fd& fd = dep.fd();
        return SatAdd(
            SatMul(2, rel_space(fd.rel)),
            SatAdd(counter(fd.lhs.size()),
                   counter(AppendDistinctAttrs(fd.lhs, fd.rhs).size())));
      }
      case DependencyKind::kInd: {
        const Ind& ind = dep.ind();
        return SatAdd(SatAdd(rel_space(ind.lhs_rel), rel_space(ind.rhs_rel)),
                      SatMul(2, counter(ind.width())));
      }
      case DependencyKind::kRd:
        return rel_space(dep.rd().rel);
      case DependencyKind::kEmvd:
      case DependencyKind::kMvd: {
        // X, XY, XZ and XYZ key tables; per X key two uint32 counts and
        // one uint64 (four entries); one count per XY, XZ and XYZ key.
        if (!scheme.ValidRel(dep.is_emvd() ? dep.emvd().rel : dep.mvd().rel)) {
          return ~std::uint64_t{0};
        }
        EmvdCols c = EmvdColumns(scheme, dep);
        return SatAdd(
            SatMul(4, space[c.rel]),
            SatAdd(SatMul(4, counter(c.x.size())),
                   SatAdd(counter(c.xy.size()),
                          SatAdd(counter(c.xz.size()),
                                 counter(c.xyz.size())))));
      }
    }
    return ~std::uint64_t{0};
  };
  for (const Dependency& p : premises) {
    est.table_entries = SatAdd(est.table_entries, dep_cost(p));
  }
  est.table_entries = SatAdd(est.table_entries, dep_cost(conclusion));
  est.table_bytes = SatMul(est.table_entries, sizeof(std::uint32_t));
  est.id_space_feasible = spaces_fit && keys_fit &&
                          est.table_entries <= kMaxTableEntries &&
                          est.table_bytes <= options.max_bytes;
  // Candidate bound: relation `rel` contributes S_rel subsets of size <=
  // max_tuples_per_relation of its tuple space, and the subset DFS visits
  // one boundary per combination of subsets chosen for relations 0..rel —
  // sum over rel of prod_{r <= rel} S_r boundaries with no pruning (the
  // search only ever tests fewer).
  std::uint64_t prefix = 1;
  for (RelId rel = 0; rel < scheme.size(); ++rel) {
    std::uint64_t binom = 1, subsets = 1;
    for (std::uint64_t i = 1;
         i <= options.max_tuples_per_relation && i <= space[rel]; ++i) {
      binom = SatMul(binom, space[rel] - i + 1) / i;
      subsets = SatAdd(subsets, binom);
    }
    prefix = SatMul(prefix, subsets);
    est.candidate_bound = SatAdd(est.candidate_bound, prefix);
  }
  if (scheme.size() == 0) est.candidate_bound = 1;
  return est;
}

const std::vector<std::uint32_t>& BoundedSearchWorkspace::KeyTable(
    RelId rel, std::size_t domain, const std::vector<AttrId>& cols,
    std::uint64_t space_size, const std::vector<std::uint64_t>& pow) {
  // Whole-call lock: tables are compiled during searcher setup, never in
  // enumeration hot loops, and the node-based map keeps handed-out
  // references valid across later inserts.
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      tables_.try_emplace(std::make_tuple(rel, domain, cols));
  if (inserted) {
    ++stats_.tables_built;
    it->second = ccfp::KeyTable(space_size, domain, cols, pow);
  } else {
    // One workspace serves one scheme: a size mismatch means the caller
    // shared it across schemes, which would otherwise be silent
    // out-of-bounds indexing in the DepState counters.
    CCFP_CHECK_MSG(it->second.size() == space_size,
                   "BoundedSearchWorkspace reused across schemes");
    ++stats_.tables_reused;
  }
  return it->second;
}

Result<BoundedSearchResult> FindCounterexample(
    SchemePtr scheme, const std::vector<Dependency>& premises,
    const Dependency& conclusion, const BoundedSearchOptions& options) {
  for (const Dependency& p : premises) {
    CCFP_RETURN_NOT_OK(Validate(*scheme, p));
  }
  CCFP_RETURN_NOT_OK(Validate(*scheme, conclusion));
  if (!EstimateBoundedSearch(*scheme, premises, conclusion, options)
           .id_space_feasible) {
    // Declined: the tables would not fit, so no verdict either way.
    BoundedSearchResult declined;
    declined.exhausted = false;
    declined.engine = kEngine;
    return declined;
  }
  return IdSpaceSearcher(scheme, premises, conclusion, options).Run();
}

Result<bool> HasBoundedCounterexample(SchemePtr scheme,
                                      const std::vector<Dependency>& premises,
                                      const Dependency& conclusion,
                                      const BoundedSearchOptions& options) {
  CCFP_ASSIGN_OR_RETURN(
      BoundedSearchResult result,
      FindCounterexample(std::move(scheme), premises, conclusion, options));
  if (result.counterexample.has_value()) return true;
  if (!result.exhausted) {
    return Status::ResourceExhausted(
        "bounded search budget exhausted without a verdict");
  }
  return false;
}

}  // namespace ccfp
