// Unit coverage for the delta-driven verification layer: the workspace
// change feed and surgical partition repair (core/workspace.h), the
// incremental dependency watchers (verify/verifier.h), the solver-owned
// witness cache (verify/witness_cache.h) and the multi-round
// ArmstrongSession.
#include <gtest/gtest.h>

#include <algorithm>

#include "armstrong/builder.h"
#include "axiom/sentence.h"
#include "chase/workspace_chase.h"
#include "core/satisfies.h"
#include "core/workspace.h"
#include "solve/solver.h"
#include "util/strings.h"
#include "verify/verifier.h"
#include "verify/witness_cache.h"

namespace ccfp {
namespace {

SchemePtr TwoColScheme() { return MakeScheme({{"R", {"A", "B"}}}); }

/// Chase-protocol merge: union, reroute, re-canonicalize occurrences.
void MergeAndCanonicalize(InternedWorkspace& ws, ValueId a, ValueId b) {
  InternedWorkspace::MergeResult m = ws.MergeValues(ws.Canon(a), ws.Canon(b));
  ASSERT_TRUE(m.merged);
  OccurrenceRange occ = ws.occurrences(m.loser);
  std::vector<WorkspaceTupleRef> stale(occ.begin(), occ.end());
  ws.RerouteOccurrences(m.loser, m.winner);
  for (const WorkspaceTupleRef& ref : stale) {
    ws.CanonicalizeTuple(ref.rel, ref.idx);
  }
}

TEST(ChangeFeedTest, PublishesAppendRewriteAndKill) {
  SchemePtr scheme = TwoColScheme();
  InternedWorkspace ws(scheme);
  ValueId n1 = ws.InternFreshNull();
  ValueId n2 = ws.InternFreshNull();
  ValueId n3 = ws.InternFreshNull();
  ws.Append(0, {n1, n2});
  ws.Append(0, {n1, n3});
  ASSERT_EQ(ws.EventCount(0), 2u);
  EXPECT_EQ(ws.events(0)[0].kind, WorkspaceEventKind::kAppend);
  EXPECT_EQ(ws.events(0)[0].idx, 0u);
  EXPECT_EQ(ws.events(0)[1].idx, 1u);

  // Merging n2 and n3 rewrites one slot and collapses it onto its twin.
  MergeAndCanonicalize(ws, n2, n3);
  ASSERT_EQ(ws.EventCount(0), 3u);
  EXPECT_EQ(ws.events(0)[2].kind, WorkspaceEventKind::kKill);
  EXPECT_EQ(ws.AliveTuples(0), 1u);
  EXPECT_EQ(ws.stats().tuples_killed, 1u);

  // A merge that changes a tuple without killing it publishes kRewrite.
  ValueId n4 = ws.InternFreshNull();
  ValueId n5 = ws.InternFreshNull();
  ws.Append(0, {n4, n5});
  MergeAndCanonicalize(ws, n4, n1);
  bool saw_rewrite = false;
  for (std::uint64_t s = 4; s < ws.EventCount(0); ++s) {
    if (ws.events(0)[s].kind == WorkspaceEventKind::kRewrite) {
      saw_rewrite = true;
    }
  }
  EXPECT_TRUE(saw_rewrite);
}

TEST(SurgicalRepairTest, MergeRepairsInsteadOfRebuilding) {
  SchemePtr scheme = TwoColScheme();
  InternedWorkspace ws(scheme);
  ValueId a = ws.Intern(Value::Int(1));
  ValueId n1 = ws.InternFreshNull();
  ValueId n2 = ws.InternFreshNull();
  ValueId n3 = ws.InternFreshNull();
  ws.Append(0, {a, n1});
  ws.Append(0, {n2, n3});

  // Compile a partition, then merge: the partition must be repaired in
  // place (no invalidation, no rebuild) and stay correct.
  const InternedWorkspace::Partition& pa = ws.partition(0, {0});
  EXPECT_EQ(pa.alive_groups, 2u);
  std::uint64_t built = ws.stats().partitions_built;
  MergeAndCanonicalize(ws, n2, a);  // slot 1 now starts with constant 1
  EXPECT_GT(ws.stats().partition_slots_repaired, 0u);
  EXPECT_EQ(ws.stats().partitions_invalidated, 0u);
  const InternedWorkspace::Partition& pa2 = ws.partition(0, {0});
  EXPECT_EQ(&pa, &pa2) << "partition identity must be stable";
  EXPECT_EQ(ws.stats().partitions_built, built) << "rebuild happened";
  EXPECT_EQ(pa2.alive_groups, 1u) << "the two A-groups merged";
  // Group ids are stable: the surviving group keeps its id; the vacated
  // one is a tombstone with group_size 0.
  std::uint32_t tombstones = 0;
  for (std::uint32_t g = 0; g < pa2.group_count; ++g) {
    if (pa2.group_size[g] == 0) ++tombstones;
  }
  EXPECT_EQ(tombstones, pa2.group_count - pa2.alive_groups);
}

TEST(SurgicalRepairTest, SweepVerdictsSurviveRepairs) {
  SchemePtr scheme = TwoColScheme();
  InternedWorkspace ws(scheme);
  ValueId n1 = ws.InternFreshNull();
  ValueId n2 = ws.InternFreshNull();
  ValueId n3 = ws.InternFreshNull();
  ValueId n4 = ws.InternFreshNull();
  ws.Append(0, {n1, n2});
  ws.Append(0, {n3, n4});
  Fd fd{0, {0}, {1}};
  EXPECT_TRUE(ws.Satisfies(fd));  // all-distinct nulls: lhs groups singleton
  MergeAndCanonicalize(ws, n1, n3);  // now both agree on A, differ on B
  EXPECT_FALSE(ws.Satisfies(fd));
  std::optional<IdViolation> v = ws.FindViolation(Dependency(fd));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->tuple_indices, (std::vector<std::uint32_t>{0, 1}));
  MergeAndCanonicalize(ws, n2, n4);  // B values join: FD restored, slot dies
  EXPECT_TRUE(ws.Satisfies(fd));
  EXPECT_EQ(ws.AliveTuples(0), 1u);
}

TEST(IncrementalVerifierTest, FdWatcherTracksAppendsAndMerges) {
  SchemePtr scheme = TwoColScheme();
  InternedWorkspace ws(scheme);
  IncrementalVerifier verifier(&ws);
  Dependency fd(Fd{0, {0}, {1}});
  WatchId id = verifier.Watch(fd);
  EXPECT_TRUE(verifier.Satisfies(id)) << "empty relation obeys every FD";

  ValueId one = ws.Intern(Value::Int(1));
  ValueId two = ws.Intern(Value::Int(2));
  ValueId three = ws.Intern(Value::Int(3));
  ws.Append(0, {one, two});
  EXPECT_TRUE(verifier.Satisfies(id));
  ws.Append(0, {one, three});  // violates A -> B
  EXPECT_FALSE(verifier.Satisfies(id));
  std::optional<IdViolation> v = verifier.FindViolation(id);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->tuple_indices, (std::vector<std::uint32_t>{0, 1}));
  // The witness is the sweep's witness, verbatim.
  EXPECT_EQ(v->tuple_indices, ws.FindViolation(fd)->tuple_indices);
}

TEST(IncrementalVerifierTest, IndWatcherTracksBothSides) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  InternedWorkspace ws(scheme);
  IncrementalVerifier verifier(&ws);
  Dependency ind(Ind{0, {0}, 1, {0}});  // R[A] <= S[C]
  WatchId id = verifier.Watch(ind);
  EXPECT_TRUE(verifier.Satisfies(id));

  ValueId one = ws.Intern(Value::Int(1));
  ValueId two = ws.Intern(Value::Int(2));
  ws.Append(0, {one, two});
  EXPECT_FALSE(verifier.Satisfies(id)) << "1 not in S[C]";
  ws.Append(1, {one, one});
  EXPECT_TRUE(verifier.Satisfies(id)) << "witness appeared on the rhs";
  ws.Append(0, {two, one});
  EXPECT_FALSE(verifier.Satisfies(id)) << "2 not in S[C]";
  std::optional<IdViolation> v = verifier.FindViolation(id);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->rel, 0u);
  EXPECT_EQ(v->tuple_indices, (std::vector<std::uint32_t>{1}));
}

TEST(IncrementalVerifierTest, WatcherStateSurvivesChaseRounds) {
  // The mid-chase verification contract: chase -> CatchUp -> O(1) reads,
  // with counters that saw only the delta.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  InternedWorkspace ws(scheme);
  std::vector<Fd> fds = {Fd{0, {0}, {1}}};
  std::vector<Ind> inds = {Ind{0, {1}, 1, {0}}};
  for (int i = 0; i < 4; ++i) {
    ws.Append(0, {ws.InternFreshNull(), ws.InternFreshNull()});
  }
  WorkspaceChase chaser(&ws, fds, inds);
  IncrementalVerifier verifier(&ws);
  WatchId fd_id = verifier.Watch(Dependency(fds[0]));
  WatchId ind_id = verifier.Watch(Dependency(inds[0]));

  ASSERT_TRUE(chaser.Run({}).ok());
  EXPECT_TRUE(verifier.Satisfies(fd_id));
  EXPECT_TRUE(verifier.Satisfies(ind_id));
  std::uint64_t consumed = verifier.stats().events_consumed;

  // Append a violating pair; the verifier sees it *before* the chase
  // repairs it, and again after the resumed chase restores sigma.
  ValueId n1 = ws.InternFreshNull();
  ws.Append(0, {n1, ws.InternFreshNull()});
  ws.Append(0, {n1, ws.InternFreshNull()});
  EXPECT_FALSE(verifier.Satisfies(fd_id));
  ASSERT_TRUE(chaser.Run({}).ok());
  EXPECT_TRUE(verifier.Satisfies(fd_id));
  EXPECT_TRUE(verifier.Satisfies(ind_id));
  EXPECT_GT(verifier.stats().events_consumed, consumed);
  EXPECT_LT(verifier.stats().events_consumed - consumed, 16u)
      << "the verifier replayed the whole history, not the delta";
}

TEST(IncrementalVerifierTest, EmvdAndRdAndMvdWatchersAgreeWithSweep) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  InternedWorkspace ws(scheme);
  IncrementalVerifier verifier(&ws);
  Dependency emvd(Emvd{0, {0}, {1}, {2}});
  Dependency mvd(Mvd{0, {0}, {1}});
  Dependency rd(Rd{0, {0}, {1}});
  WatchId e = verifier.Watch(emvd);
  WatchId m = verifier.Watch(mvd);
  WatchId r = verifier.Watch(rd);

  ValueId one = ws.Intern(Value::Int(1));
  ValueId two = ws.Intern(Value::Int(2));
  ValueId three = ws.Intern(Value::Int(3));
  ws.Append(0, {one, one, one});
  ws.Append(0, {one, two, three});
  for (int step = 0; step < 2; ++step) {
    EXPECT_EQ(verifier.Satisfies(e), ws.Satisfies(emvd));
    EXPECT_EQ(verifier.Satisfies(m), ws.Satisfies(mvd));
    EXPECT_EQ(verifier.Satisfies(r), ws.Satisfies(rd));
    ws.Append(0, {one, one, three});  // completes one missing combination
  }
  EXPECT_FALSE(verifier.Satisfies(r));  // (1,2,3) has A != B
}

TEST(IncrementalVerifierTest, ObeysExactlyWatchedMatchesSweep) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  InternedWorkspace ws(scheme);
  ws.AppendTuple(0, {Value::Int(1), Value::Int(2), Value::Int(2)});
  ws.AppendTuple(0, {Value::Int(2), Value::Int(2), Value::Int(3)});
  std::vector<Dependency> universe = {
      Dependency(Fd{0, {0}, {1}}), Dependency(Fd{0, {1}, {2}}),
      Dependency(Rd{0, {1}, {2}}), Dependency(Mvd{0, {0}, {1}})};
  std::vector<Dependency> satisfied;
  for (const Dependency& dep : universe) {
    if (ws.Satisfies(dep)) satisfied.push_back(dep);
  }
  IncrementalVerifier verifier(&ws);
  std::vector<WatchId> ids;
  for (const Dependency& dep : universe) ids.push_back(verifier.Watch(dep));
  auto expected_of = [&](const std::vector<Dependency>& expected) {
    std::vector<bool> should;
    for (const Dependency& dep : universe) {
      should.push_back(std::find(expected.begin(), expected.end(), dep) !=
                       expected.end());
    }
    return should;
  };
  EXPECT_FALSE(ObeysExactlyWatchedIds(verifier, universe,
                                      expected_of(satisfied), ids)
                   .has_value());
  // Perturbations reject with the sweep's diagnostic strings.
  std::vector<Dependency> wrong = satisfied;
  wrong.pop_back();
  std::optional<std::string> watched =
      ObeysExactlyWatchedIds(verifier, universe, expected_of(wrong), ids);
  std::optional<std::string> swept = ObeysExactly(ws, universe, wrong);
  ASSERT_TRUE(watched.has_value());
  ASSERT_TRUE(swept.has_value());
  EXPECT_EQ(*watched, *swept);
}

TEST(WitnessCacheTest, AdmitsVerifiesAndReplays) {
  SchemePtr scheme = TwoColScheme();
  std::vector<Dependency> sigma = {Dependency(Fd{0, {0}, {1}})};
  WitnessCache cache(scheme, sigma, 2);

  // Satisfies sigma, violates B -> A.
  Database good(scheme);
  good.Insert(0, {Value::Int(1), Value::Int(9)});
  good.Insert(0, {Value::Int(2), Value::Int(9)});
  Dependency target(Fd{0, {1}, {0}});
  WitnessCache::AdmitOutcome out = cache.Admit(good, target);
  EXPECT_TRUE(out.admitted);
  EXPECT_TRUE(out.genuine);
  EXPECT_EQ(cache.size(), 1u);

  // Violates sigma: rejected, and its target flag is not misreported.
  Database bad(scheme);
  bad.Insert(0, {Value::Int(1), Value::Int(2)});
  bad.Insert(0, {Value::Int(1), Value::Int(3)});
  out = cache.Admit(bad, target);
  EXPECT_FALSE(out.admitted);
  EXPECT_FALSE(out.genuine);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().rejected, 1u);

  // Replay: the cached database refutes the same target and any other
  // dependency it happens to violate; it cannot refute a consequence.
  EXPECT_NE(cache.Refute(target), nullptr);
  EXPECT_EQ(cache.Refute(Dependency(Fd{0, {0}, {1}})), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Duplicate admission does not grow the cache.
  out = cache.Admit(good, target);
  EXPECT_TRUE(out.admitted);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(WitnessCacheTest, WatchCapBoundsPerEntryWatcherGrowth) {
  // Every distinct probed target registers a watcher on every cached
  // entry and the verifier has no unwatch, so a long-lived solver
  // probing many targets used to grow each entry's watcher set without
  // bound. The cap forces a fresh rebuild over sigma instead; verdicts
  // must be unaffected across resets.
  SchemePtr scheme = TwoColScheme();
  std::vector<Dependency> sigma = {Dependency(Fd{0, {0}, {1}})};
  WitnessCache cache(scheme, sigma, 2, /*max_watches_per_entry=*/2);

  Database good(scheme);  // satisfies A -> B, violates plenty else
  good.Insert(0, {Value::Int(1), Value::Int(9)});
  good.Insert(0, {Value::Int(2), Value::Int(9)});
  WitnessCache::AdmitOutcome out = cache.Admit(good, Dependency(Fd{0, {1}, {0}}));
  ASSERT_TRUE(out.admitted);
  ASSERT_TRUE(out.genuine);

  struct Probe {
    Dependency target;
    bool refuted;
  };
  std::vector<Probe> probes = {
      {Dependency(Fd{0, {1}, {0}}), true},      // 9 -> {1, 2}
      {Dependency(Fd{0, {}, {0}}), true},       // A not constant
      {Dependency(Fd{0, {}, {1}}), false},      // B constant
      {Dependency(Fd{0, {}, {0, 1}}), true},
      {Dependency(Fd{0, {1}, {0, 1}}), true},
      {Dependency(Fd{0, {0, 1}, {0}}), false},  // trivial
      {Dependency(Fd{0, {0}, {0, 1}}), false},  // equivalent to sigma
      {Dependency(Ind{0, {0}, 0, {1}}), true},  // {1,2} not in {9}
      {Dependency(Ind{0, {1}, 0, {0}}), true},  // {9} not in {1,2}
  };
  for (int round = 0; round < 3; ++round) {
    for (const Probe& probe : probes) {
      EXPECT_EQ(cache.Refute(probe.target) != nullptr, probe.refuted)
          << probe.target.ToString(*scheme) << " round " << round;
    }
  }
  // Nine distinct targets against a cap of two forced resets; memory
  // stayed bounded instead of accreting one watcher per target forever.
  EXPECT_GT(cache.stats().watcher_resets, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(WitnessCacheTest, ByteCeilingEvictsColdestUntilUnderBudget) {
  SchemePtr scheme = TwoColScheme();
  std::vector<Dependency> sigma = {Dependency(Fd{0, {0}, {1}})};
  WitnessCache cache(scheme, sigma, 4);
  Dependency target(Fd{0, {1}, {0}});
  for (int k = 0; k < 3; ++k) {
    Database db(scheme);
    db.Insert(0, {Value::Int(10 + k), Value::Int(7)});
    db.Insert(0, {Value::Int(20 + k), Value::Int(7)});
    WitnessCache::AdmitOutcome out = cache.Admit(db, target);
    ASSERT_TRUE(out.admitted);
    ASSERT_TRUE(out.genuine);
  }
  ASSERT_EQ(cache.size(), 3u);
  std::uint64_t bytes = cache.MemoryBytes();
  ASSERT_GT(bytes, 0u);

  // A ceiling at the live footprint evicts nothing.
  cache.EnforceByteCeiling(bytes);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().byte_evictions, 0u);

  // Below it, coldest entries go first until the cache fits.
  cache.EnforceByteCeiling(bytes - 1);
  EXPECT_LT(cache.size(), 3u);
  EXPECT_GT(cache.size(), 0u);
  EXPECT_GT(cache.stats().byte_evictions, 0u);
  EXPECT_LE(cache.MemoryBytes(), bytes - 1);
  // The survivors still answer.
  EXPECT_NE(cache.Refute(target), nullptr);

  // A zero ceiling empties the cache; probes miss but stay well-defined.
  cache.EnforceByteCeiling(0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.MemoryBytes(), 0u);
  EXPECT_EQ(cache.Refute(target), nullptr);
  EXPECT_EQ(cache.stats().evicted, cache.stats().byte_evictions)
      << "capacity never overflowed, so every eviction is a byte eviction";
}

TEST(WitnessCacheTest, SolverReplaysRefutationsAcrossSolves) {
  // Mixed-fragment sigma; the first Solve pays the staged pipeline, the
  // second is answered from the witness cache before any engine runs.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Dependency> sigma = {
      Dependency(Fd{0, {0}, {1}}),
      Dependency(Ind{0, {0, 1}, 1, {0, 1}}),
  };
  ImplicationSolver solver(scheme, sigma);
  Dependency target(Fd{1, {0}, {1}});  // S: C -> D is not implied
  Result<Verdict> first = solver.Solve(target);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->outcome, ImplicationVerdict::kNotImplied);
  ASSERT_TRUE(first->counterexample_verified);
  EXPECT_EQ(first->engine.find("witness-cache"), std::string::npos);

  Result<Verdict> second = solver.Solve(target);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->outcome, ImplicationVerdict::kNotImplied);
  EXPECT_NE(second->engine.find("witness-cache"), std::string::npos)
      << second->engine;
  ASSERT_TRUE(second->counterexample.has_value());
  // The replayed evidence is genuine.
  EXPECT_TRUE(second->counterexample_verified);
  EXPECT_FALSE(Satisfies(*second->counterexample, target));
  EXPECT_TRUE(SatisfiesAll(*second->counterexample, sigma));

  // A *different* target the same witness refutes is also near-free.
  Result<Verdict> third = solver.Solve(Dependency(Fd{1, {1}, {0}}));
  ASSERT_TRUE(third.ok()) << third.status();
  if (third->not_implied() &&
      third->engine.find("witness-cache") != std::string::npos) {
    EXPECT_TRUE(third->counterexample_verified);
  }
}

TEST(ArmstrongSessionTest, IncrementalMatchesFullSweepAcrossExtends) {
  // Universe grown in chunks; after every Extend the watcher session must
  // hold a verified-exact database certifying the same consequence set as
  // a fresh one-shot build (which verifies by full sweep) over the
  // universe so far.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Fd> fds = {Fd{0, {0}, {1}}, Fd{0, {1}, {2}}};
  UniverseOptions uopts;
  uopts.max_fd_lhs = 2;
  uopts.include_inds = false;
  std::vector<Dependency> universe = EnumerateUniverse(*scheme, uopts);
  ASSERT_GT(universe.size(), 8u);
  FdOracle oracle(scheme);

  ArmstrongSession inc(scheme, fds, {}, &oracle);

  std::size_t chunk = universe.size() / 4 + 1;
  for (std::size_t at = 0; at < universe.size(); at += chunk) {
    std::vector<Dependency> delta(
        universe.begin() + at,
        universe.begin() + std::min(at + chunk, universe.size()));
    ASSERT_TRUE(inc.Extend(delta).ok());
    Result<ArmstrongReport> sweep =
        BuildArmstrongDatabase(scheme, fds, {}, inc.universe(), oracle);
    ASSERT_TRUE(sweep.ok()) << sweep.status();
    EXPECT_EQ(inc.expected(), sweep->expected);
    // Cross-check with the independent sweep engine on the materialized db.
    EXPECT_FALSE(
        ObeysExactly(inc.Snapshot(), inc.universe(), inc.expected())
            .has_value());
  }
  // Extending with already-known members is a no-op beyond re-verifying.
  ASSERT_TRUE(inc.Extend(universe).ok());
  EXPECT_EQ(inc.universe().size(), universe.size());
}

TEST(ArmstrongBuilderTest, VerifyEnginesAgreeOnOneShotBuilds) {
  // BuildArmstrongDatabase verifies by full sweep; a one-Extend session
  // verifies through watchers. The strategy must not change the result.
  SchemePtr scheme = MakeScheme(
      {{"R0", {"A", "B"}}, {"R1", {"A", "B"}}, {"R2", {"A", "B"}}});
  std::vector<Fd> fds = {Fd{0, {0}, {1}}, Fd{1, {0}, {1}}, Fd{2, {0}, {1}}};
  std::vector<Ind> inds = {Ind{0, {1}, 1, {0}}, Ind{1, {1}, 2, {0}}};
  UniverseOptions uopts;
  uopts.max_fd_lhs = 1;
  uopts.max_ind_width = 1;
  uopts.include_rds = true;
  std::vector<Dependency> universe = EnumerateUniverse(*scheme, uopts);
  ChaseOracle oracle(scheme);

  ArmstrongSession inc(scheme, fds, inds, &oracle);
  ASSERT_TRUE(inc.Extend(universe).ok());
  Result<ArmstrongReport> sweep =
      BuildArmstrongDatabase(scheme, fds, inds, universe, oracle);
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  EXPECT_EQ(inc.expected(), sweep->expected);
  EXPECT_EQ(inc.Snapshot(), sweep->db)
      << "verification strategy must not change the built database";
}

}  // namespace
}  // namespace ccfp
