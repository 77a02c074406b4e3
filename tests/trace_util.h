// Shared randomized-trace driver for the workspace/verifier test suites:
// random schemes, dependency universes, append/merge mutations under the
// chase protocol, and the three-way verdict/witness agreement check
// (watchers vs. workspace sweep vs. fresh re-intern). Extracted from
// tests/verify_property_test.cc so the snapshot round-trip, fault
// injection, and soak suites drive the exact same traces.
#ifndef CCFP_TESTS_TRACE_UTIL_H_
#define CCFP_TESTS_TRACE_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/satisfies.h"
#include "core/workspace.h"
#include "util/fault.h"
#include "util/rng.h"
#include "verify/verifier.h"

namespace ccfp {
namespace testutil {

inline SchemePtr RandomScheme(SplitMix64& rng) {
  std::size_t relations = 2 + rng.Below(2);
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t r = 0; r < relations; ++r) {
    std::size_t arity = 2 + rng.Below(3);
    std::vector<std::string> attrs;
    for (std::size_t a = 0; a < arity; ++a) {
      attrs.push_back(std::string(1, static_cast<char>('A' + a)));
    }
    rels.emplace_back("R" + std::to_string(r), std::move(attrs));
  }
  return MakeScheme(std::move(rels));
}

inline std::vector<AttrId> RandomAttrs(SplitMix64& rng, std::size_t arity,
                                       std::size_t max_len,
                                       bool allow_empty) {
  std::vector<AttrId> all(arity);
  for (AttrId a = 0; a < arity; ++a) all[a] = a;
  for (std::size_t j = arity; j > 1; --j) {
    std::swap(all[j - 1], all[rng.Below(j)]);
  }
  std::size_t lo = allow_empty ? 0 : 1;
  std::size_t len = lo + rng.Below(std::min(max_len, arity) - lo + 1);
  return std::vector<AttrId>(all.begin(), all.begin() + len);
}

// A batch of random dependencies of every kind, duplicate-free.
inline std::vector<Dependency> RandomUniverse(const SchemePtr& scheme,
                                              SplitMix64& rng,
                                              std::size_t count) {
  std::vector<Dependency> out;
  std::size_t attempts = 0;
  while (out.size() < count && ++attempts < count * 20) {
    RelId rel = static_cast<RelId>(rng.Below(scheme->size()));
    std::size_t arity = scheme->relation(rel).arity();
    Dependency dep = Dependency(Fd{0, {}, {0}});
    switch (rng.Below(5)) {
      case 0:
        dep = Dependency(Fd{rel, RandomAttrs(rng, arity, 2, true),
                            RandomAttrs(rng, arity, 2, false)});
        break;
      case 1: {
        RelId rhs_rel = static_cast<RelId>(rng.Below(scheme->size()));
        std::size_t rhs_arity = scheme->relation(rhs_rel).arity();
        std::size_t width = 1 + rng.Below(2);
        std::vector<AttrId> lhs = RandomAttrs(rng, arity, width, false);
        std::vector<AttrId> rhs = RandomAttrs(rng, rhs_arity, width, false);
        std::size_t w = std::min(lhs.size(), rhs.size());
        lhs.resize(w);
        rhs.resize(w);
        dep = Dependency(Ind{rel, std::move(lhs), rhs_rel, std::move(rhs)});
        break;
      }
      case 2: {
        std::size_t w = 1 + rng.Below(2);
        std::vector<AttrId> lhs = RandomAttrs(rng, arity, w, false);
        std::vector<AttrId> rhs = RandomAttrs(rng, arity, w, false);
        std::size_t n = std::min(lhs.size(), rhs.size());
        lhs.resize(n);
        rhs.resize(n);
        dep = Dependency(Rd{rel, std::move(lhs), std::move(rhs)});
        break;
      }
      case 3: {
        std::vector<AttrId> x = RandomAttrs(rng, arity, 2, true);
        std::vector<AttrId> y, z;
        for (AttrId a = 0; a < arity; ++a) {
          if (std::find(x.begin(), x.end(), a) != x.end()) continue;
          if (rng.Chance(1, 2)) {
            y.push_back(a);
          } else {
            z.push_back(a);
          }
        }
        std::sort(x.begin(), x.end());
        dep = Dependency(Emvd{rel, std::move(x), std::move(y),
                              std::move(z)});
        break;
      }
      default: {
        std::vector<AttrId> x = RandomAttrs(rng, arity, 2, true);
        std::vector<AttrId> y = RandomAttrs(rng, arity, 2, false);
        std::sort(x.begin(), x.end());
        std::sort(y.begin(), y.end());
        dep = Dependency(Mvd{rel, std::move(x), std::move(y)});
        break;
      }
    }
    if (!Validate(*scheme, dep).ok()) continue;
    if (std::find(out.begin(), out.end(), dep) != out.end()) continue;
    out.push_back(std::move(dep));
  }
  return out;
}

/// Appends a random tuple drawn from a small shared id pool (so merges
/// and duplicate collisions actually happen). Stored ids are mapped
/// through the union-find first: appended tuples must be canonical at
/// birth (the workspace contract every chase engine upholds).
inline void AppendRandomTuple(InternedWorkspace& ws, SplitMix64& rng,
                              std::vector<ValueId>& pool) {
  RelId rel = static_cast<RelId>(rng.Below(ws.scheme().size()));
  std::size_t arity = ws.scheme().relation(rel).arity();
  IdTuple t(arity, 0);
  for (std::size_t a = 0; a < arity; ++a) {
    if (pool.empty() || rng.Chance(1, 4)) {
      pool.push_back(rng.Chance(1, 3)
                         ? ws.InternFreshNull()
                         : ws.Intern(Value::Int(static_cast<std::int64_t>(
                               rng.Below(4)))));
    }
    t[a] = ws.Canon(pool[rng.Below(pool.size())]);
  }
  ws.Append(rel, std::move(t));
}

/// Merges two random pool ids under the chase protocol: MergeValues, then
/// re-canonicalize every occurrence of the loser (the exact sequence
/// WorkspaceChase drives through its dirty worklist), so the workspace is
/// quiescent again when this returns.
inline void MergeRandomValues(InternedWorkspace& ws, SplitMix64& rng,
                              const std::vector<ValueId>& pool) {
  if (pool.size() < 2) return;
  ValueId a = ws.Canon(pool[rng.Below(pool.size())]);
  ValueId b = ws.Canon(pool[rng.Below(pool.size())]);
  InternedWorkspace::MergeResult m = ws.MergeValues(a, b);
  if (!m.merged) return;  // equal already, or a constant clash
  OccurrenceRange occ = ws.occurrences(m.loser);
  std::vector<WorkspaceTupleRef> stale(occ.begin(), occ.end());
  ws.RerouteOccurrences(m.loser, m.winner);
  for (const WorkspaceTupleRef& ref : stale) {
    ws.CanonicalizeTuple(ref.rel, ref.idx);
  }
}

/// Maps workspace slot indices to alive ranks (the tuple indices of the
/// materialized database, which drops dead slots but preserves order).
inline std::vector<std::size_t> AliveRanks(
    const InternedWorkspace& ws, RelId rel,
    const std::vector<std::uint32_t>& slots) {
  std::vector<std::size_t> ranks;
  for (std::uint32_t slot : slots) {
    std::size_t rank = 0;
    for (std::uint32_t i = 0; i < slot; ++i) {
      if (ws.alive(rel, i)) ++rank;
    }
    EXPECT_TRUE(ws.alive(rel, slot)) << "witness names a dead slot";
    ranks.push_back(rank);
  }
  return ranks;
}

/// The cursor-position invariant: watchers, the workspace sweep, and a
/// fresh interned database agree on every verdict and witness.
inline void CheckAgreement(const InternedWorkspace& ws,
                           IncrementalVerifier& verifier,
                           const std::vector<Dependency>& deps,
                           const std::vector<WatchId>& ids) {
  Database mat = ws.Materialize();
  for (std::size_t i = 0; i < deps.size(); ++i) {
    const Dependency& dep = deps[i];
    bool sweep = ws.Satisfies(dep);
    bool fresh = Satisfies(mat, dep);
    bool watched = verifier.Satisfies(ids[i]);
    ASSERT_EQ(sweep, fresh)
        << "surgically repaired partitions disagree with a fresh intern "
           "on " << dep.ToString(ws.scheme()) << "\n" << mat.ToString();
    ASSERT_EQ(watched, sweep)
        << "watcher disagrees with the sweep on "
        << dep.ToString(ws.scheme()) << "\n" << mat.ToString();

    std::optional<IdViolation> sv = ws.FindViolation(dep);
    std::optional<Violation> fv = FindViolation(mat, dep);
    ASSERT_EQ(sv.has_value(), fv.has_value()) << dep.ToString(ws.scheme());
    if (sv.has_value() && !sv->tuple_indices.empty()) {
      EXPECT_EQ(AliveRanks(ws, sv->rel, sv->tuple_indices),
                fv->tuple_indices)
          << "sweep witness over repaired partitions differs from the "
             "fresh-intern witness for " << dep.ToString(ws.scheme());
    }
    std::optional<IdViolation> wv = verifier.FindViolation(ids[i]);
    ASSERT_EQ(wv.has_value(), sv.has_value());
    if (wv.has_value()) {
      EXPECT_EQ(wv->rel, sv->rel);
      EXPECT_EQ(wv->tuple_indices, sv->tuple_indices);
    }
  }
}

/// Asserts two workspaces are *observably* equivalent: same materialized
/// database, same raw stored ids and alive flags per slot, and the same
/// retained feed windows. Deliberately does NOT compare the union-find
/// arrays or the partition-maintenance stats: a journal-replayed
/// workspace takes its own path-halving history (fewer Finds than the
/// live one ran), and its consumers compile partitions on their own
/// schedule — neither is observable through verdicts, witnesses, or
/// exports, which is the equivalence the snapshot layer promises.
inline void ExpectObservablyEquivalent(const InternedWorkspace& a,
                                       const InternedWorkspace& b) {
  ASSERT_EQ(a.scheme().size(), b.scheme().size());
  EXPECT_EQ(a.Materialize().ToString(), b.Materialize().ToString());
  for (RelId rel = 0; rel < a.scheme().size(); ++rel) {
    ASSERT_EQ(a.size(rel), b.size(rel)) << "slot count, rel " << rel;
    EXPECT_EQ(a.AliveTuples(rel), b.AliveTuples(rel));
    ASSERT_EQ(a.FeedBase(rel), b.FeedBase(rel)) << "feed horizon";
    ASSERT_EQ(a.EventCount(rel), b.EventCount(rel)) << "feed tip";
    for (std::uint64_t s = a.FeedBase(rel); s < a.EventCount(rel); ++s) {
      EXPECT_EQ(a.event(rel, s).kind, b.event(rel, s).kind);
      EXPECT_EQ(a.event(rel, s).idx, b.event(rel, s).idx);
    }
    for (std::uint32_t i = 0; i < a.size(rel); ++i) {
      ASSERT_EQ(a.alive(rel, i), b.alive(rel, i)) << "slot " << i;
      ASSERT_TRUE(std::ranges::equal(a.tuple(rel, i), b.tuple(rel, i)))
          << "raw stored ids, rel " << rel << " slot " << i;
    }
  }
  // Mutation counters are part of the replayed history (unlike the
  // partition counters, which track each side's own query schedule).
  EXPECT_EQ(a.stats().tuples_appended, b.stats().tuples_appended);
  EXPECT_EQ(a.stats().tuples_killed, b.stats().tuples_killed);
  EXPECT_EQ(a.stats().value_merges, b.stats().value_merges);
  EXPECT_EQ(a.stats().values_interned, b.stats().values_interned);
}

/// Bit rot on disk: rewrites the record at `path` in place, damaged by
/// `fi` — one seeded bit flip for kSnapshotCorrupt, a seeded truncation
/// for kSnapshotTruncate.
inline void DamageFileInPlace(const std::string& path, FaultInjector& fi,
                              FaultSite site) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "cannot read " << path;
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty()) << path;
  if (site == FaultSite::kSnapshotCorrupt) {
    fi.CorruptBytes(bytes);
  } else {
    fi.TruncateBytes(bytes);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

}  // namespace testutil
}  // namespace ccfp

#endif  // CCFP_TESTS_TRACE_UTIL_H_
