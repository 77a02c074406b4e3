// Unit tests for the concurrent solver service (service/service.h): core
// deduplication with the zero-re-interning reuse proof, admission control
// (session capacity, in-flight ceiling, lifetime step budgets — always
// ResourceExhausted, never a wrong verdict), snapshot-backed eviction and
// revival for every session kind, and the per-session stats counters.
#include "service/service.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "core/parser.h"
#include "mine/discovery.h"
#include "service/shared_core.h"
#include "solve/solver.h"

namespace ccfp {
namespace {

SchemePtr RsScheme() {
  return MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
}

std::vector<Dependency> MixedSigma() {
  return {Dependency(Fd{0, {0}, {1}}), Dependency(Ind{0, {0}, 1, {0}})};
}

Database WarmData(const SchemePtr& scheme) {
  Database db(scheme);
  db.Insert(0, {Value::Int(1), Value::Int(10)});
  db.Insert(0, {Value::Int(2), Value::Int(10)});
  db.Insert(0, {Value::Int(3), Value::Int(30)});
  db.Insert(1, {Value::Int(1), Value::Int(7)});
  db.Insert(1, {Value::Int(2), Value::Int(7)});
  db.Insert(1, {Value::Int(3), Value::Int(9)});
  return db;
}

TEST(SolverCoreTest, IdentityDedupsAndValidates) {
  SchemePtr scheme = RsScheme();
  EXPECT_EQ(SolverCore::Identity(*scheme, MixedSigma()),
            SolverCore::Identity(*scheme, MixedSigma()));
  EXPECT_NE(SolverCore::Identity(*scheme, MixedSigma()),
            SolverCore::Identity(*scheme, {}));

  // A sigma member that does not fit the scheme is refused at Build.
  Result<std::shared_ptr<const SolverCore>> bad =
      SolverCore::Build(scheme, {Dependency(Fd{5, {0}, {1}})});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolverCoreTest, ForkPaysZeroReInterningAndZeroCompilation) {
  SchemePtr scheme = RsScheme();
  Database warm = WarmData(scheme);
  Result<std::shared_ptr<const SolverCore>> core =
      SolverCore::Build(scheme, MixedSigma(), &warm);
  ASSERT_TRUE(core.ok()) << core.status();

  // The fork inherits the sealed base's counters; a session that only
  // reads warm state (here: re-verifying sigma and re-mining) moves
  // neither values_interned nor partitions_built.
  InternedWorkspace fork = (*core)->ForkWorkspace();
  for (const Dependency& dep : (*core)->sigma()) fork.Satisfies(dep);
  (void)MineFds(fork, 0);
  (void)MineInds(fork);
  EXPECT_EQ(fork.stats().values_interned,
            (*core)->base_stats().values_interned);
  EXPECT_EQ(fork.stats().partitions_built,
            (*core)->base_stats().partitions_built);
  EXPECT_GT(fork.stats().partitions_reused,
            (*core)->base_stats().partitions_reused);

  // Session-local growth stays local: the shared base is frozen.
  EXPECT_TRUE(fork.interner().has_shared_base());
  fork.Intern(Value::Int(424242));
  EXPECT_EQ(fork.stats().values_interned,
            (*core)->base_stats().values_interned + 1);
  EXPECT_EQ((*core)->base().stats().values_interned,
            (*core)->base_stats().values_interned);
}

TEST(ServiceTest, SecondMiningSessionReusesTheCoreForFree) {
  SchemePtr scheme = RsScheme();
  Database data = WarmData(scheme);
  SolverService service;

  Result<SolverService::SessionId> a = service.OpenMine(scheme, data);
  ASSERT_TRUE(a.ok()) << a.status();
  Result<SolverService::SessionId> b = service.OpenMine(scheme, data);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(service.stats().cores, 1u);
  EXPECT_EQ(service.stats().core_reuses, 1u);

  // Both sessions mine identical results, equal to mining the raw data.
  Result<std::vector<Fd>> fds_a = service.MineSessionFds(*a, 0);
  Result<std::vector<Fd>> fds_b = service.MineSessionFds(*b, 0);
  ASSERT_TRUE(fds_a.ok() && fds_b.ok());
  EXPECT_EQ(*fds_a, *fds_b);
  EXPECT_EQ(*fds_a, MineFds(data, 0));

  // The reuse proof: the second session re-interned nothing and compiled
  // no partitions — all capital came from the shared core.
  Result<SolverService::SessionStats> stats = service.Stats(*b);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->values_interned, 0u);
  EXPECT_EQ(stats->partitions_built, 0u);
  EXPECT_EQ(stats->ops, 1u);
}

TEST(ServiceTest, SolveSessionMatchesStandaloneSolver) {
  SchemePtr scheme = RsScheme();
  SolverService service;
  Result<SolverService::SessionId> id =
      service.OpenSolve(scheme, MixedSigma());
  ASSERT_TRUE(id.ok()) << id.status();

  ImplicationSolver reference(scheme, MixedSigma());
  std::vector<Dependency> targets = {
      Dependency(Fd{0, {0}, {1}}),  // member: implied
      Dependency(Fd{0, {1}, {0}}),  // not implied: counterexample
      Dependency(Ind{1, {0}, 0, {0}}),  // reverse IND: not implied
  };
  for (const Dependency& target : targets) {
    Result<Verdict> got = service.Solve(*id, target);
    Result<Verdict> want = reference.Solve(target);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(got->outcome, want->outcome) << target.ToString(*scheme);
    EXPECT_EQ(got->ToString(*scheme), want->ToString(*scheme));
  }
  Result<SolverService::SessionStats> stats = service.Stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->ops, targets.size());
  EXPECT_GT(stats->steps_used, 0u);
}

TEST(ServiceTest, SessionCapacityIsResourceExhausted) {
  SolverService::Options options;
  options.max_sessions = 1;
  SolverService service(options);
  SchemePtr scheme = RsScheme();
  ASSERT_TRUE(service.OpenSolve(scheme, MixedSigma()).ok());
  Result<SolverService::SessionId> refused =
      service.OpenSolve(scheme, MixedSigma());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected_capacity, 1u);
  EXPECT_EQ(service.stats().sessions_resident, 1u);
}

TEST(ServiceTest, InflightCeilingIsResourceExhausted) {
  SolverService::Options options;
  options.max_inflight = 0;  // every op refused — the ceiling, isolated
  SolverService service(options);
  SchemePtr scheme = RsScheme();
  Result<SolverService::SessionId> id =
      service.OpenSolve(scheme, MixedSigma());
  ASSERT_TRUE(id.ok());
  Result<Verdict> refused = service.Solve(*id, Dependency(Fd{0, {0}, {1}}));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected_inflight, 1u);
}

TEST(ServiceTest, LifetimeStepCeilingTripsAfterTheHonestVerdict) {
  SolverService::Options options;
  options.session_step_ceiling = 1;  // the first op charges past it
  SolverService service(options);
  SchemePtr scheme = RsScheme();
  Result<SolverService::SessionId> id =
      service.OpenSolve(scheme, MixedSigma());
  ASSERT_TRUE(id.ok());

  // The op that crosses the ceiling still returns its correct verdict…
  Result<Verdict> first = service.Solve(*id, Dependency(Fd{0, {1}, {0}}));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->not_implied());

  // …and only later ops are refused.
  Result<Verdict> second = service.Solve(*id, Dependency(Fd{0, {0}, {1}}));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected_budget, 1u);
  Result<SolverService::SessionStats> stats = service.Stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->budget_exhausted);
}

TEST(ServiceTest, LifetimeStepCeilingRefusesEveryMineOp) {
  SolverService::Options options;
  options.session_step_ceiling = 1;
  SolverService service(options);
  SchemePtr scheme = RsScheme();
  Result<SolverService::SessionId> id =
      service.OpenMine(scheme, WarmData(scheme));
  ASSERT_TRUE(id.ok());

  // Two appended tuples charge 2 steps: the append succeeds and crosses
  // the ceiling…
  Database delta(scheme);
  delta.Insert(0, {Value::Int(4), Value::Int(40)});
  delta.Insert(1, {Value::Int(4), Value::Int(9)});
  ASSERT_TRUE(service.Append(*id, delta).ok());

  // …and every mine op after it is refused.
  Result<std::vector<Fd>> fds = service.MineSessionFds(*id, 0);
  ASSERT_FALSE(fds.ok());
  EXPECT_EQ(fds.status().code(), StatusCode::kResourceExhausted);
  Result<std::vector<Ind>> inds = service.MineSessionInds(*id);
  ASSERT_FALSE(inds.ok());
  EXPECT_EQ(inds.status().code(), StatusCode::kResourceExhausted);
  Result<std::vector<Rd>> rds = service.MineSessionRds(*id);
  ASSERT_FALSE(rds.ok());
  EXPECT_EQ(rds.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected_budget, 3u);
  Result<SolverService::SessionStats> stats = service.Stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->budget_exhausted);
  EXPECT_EQ(stats->ops, 1u);
  EXPECT_EQ(stats->steps_used, 2u);
}

TEST(ServiceTest, SolveSessionEvictionDropsEnginesAndRevivesTransparently) {
  SolverService service;  // no spill_dir: solve sessions are pure capital
  SchemePtr scheme = RsScheme();
  Result<SolverService::SessionId> id =
      service.OpenSolve(scheme, MixedSigma());
  ASSERT_TRUE(id.ok());
  Dependency target(Fd{0, {1}, {0}});
  Result<Verdict> before = service.Solve(*id, target);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(service.Evict(*id).ok());
  Result<SolverService::SessionStats> evicted = service.Stats(*id);
  ASSERT_TRUE(evicted.ok());
  EXPECT_TRUE(evicted->evicted);
  EXPECT_EQ(evicted->evictions, 1u);

  Result<Verdict> after = service.Solve(*id, target);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->outcome, before->outcome);
  Result<SolverService::SessionStats> revived = service.Stats(*id);
  ASSERT_TRUE(revived.ok());
  EXPECT_FALSE(revived->evicted);
  EXPECT_EQ(revived->revivals, 1u);
  EXPECT_EQ(service.stats().sessions_evicted, 1u);
  EXPECT_EQ(service.stats().sessions_revived, 1u);
}

TEST(ServiceTest, MiningEvictionSpillsAndRevivesWithLocalAppends) {
  SolverService::Options options;
  options.spill_dir = ::testing::TempDir();
  SolverService service(options);
  SchemePtr scheme = RsScheme();
  Database data = WarmData(scheme);
  Result<SolverService::SessionId> id = service.OpenMine(scheme, data);
  ASSERT_TRUE(id.ok());

  // A session-local append that breaks A -> B in R: mined FDs change.
  Database delta(scheme);
  delta.Insert(0, {Value::Int(1), Value::Int(99)});
  ASSERT_TRUE(service.Append(*id, delta).ok());
  Result<std::vector<Fd>> before = service.MineSessionFds(*id, 0);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(service.Evict(*id).ok());
  // Revival is implicit: the next op warm-starts from the spill chain,
  // with the session-local delta intact.
  Result<std::vector<Fd>> after = service.MineSessionFds(*id, 0);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*before, *after);

  // Evict/revive again: the chain continues (delta records), state holds.
  ASSERT_TRUE(service.Evict(*id).ok());
  Result<std::vector<Ind>> inds = service.MineSessionInds(*id);
  ASSERT_TRUE(inds.ok());
  Database combined = data;
  combined.Insert(0, {Value::Int(1), Value::Int(99)});
  EXPECT_EQ(*inds, MineInds(combined));
}

TEST(ServiceTest, MiningEvictionWithoutSpillDirIsFailedPrecondition) {
  SolverService service;
  SchemePtr scheme = RsScheme();
  Database data = WarmData(scheme);
  Result<SolverService::SessionId> id = service.OpenMine(scheme, data);
  ASSERT_TRUE(id.ok());
  Status refused = service.Evict(*id);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
}

TEST(ServiceTest, ArmstrongEvictionRevivesWithoutOracleReplay) {
  SolverService::Options options;
  options.spill_dir = ::testing::TempDir();
  SolverService service(options);
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Fd> fds = {Fd{0, {0}, {1}}};
  Result<SolverService::SessionId> id =
      service.OpenArmstrong(scheme, fds, {});
  ASSERT_TRUE(id.ok()) << id.status();

  std::vector<Dependency> universe = {
      Dependency(Fd{0, {0}, {1}}),
      Dependency(Fd{0, {0}, {2}}),
      Dependency(Fd{0, {1}, {0}}),
  };
  ASSERT_TRUE(service.Extend(*id, universe).ok());
  Result<Database> before = service.ArmstrongDatabase(*id);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(service.Evict(*id).ok());
  // The revived session adopts workspace + classification (zero oracle
  // calls); its database is bit-identical and it keeps extending.
  Result<Database> after = service.ArmstrongDatabase(*id);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(before->ToString(), after->ToString());
  ASSERT_TRUE(
      service.Extend(*id, {Dependency(Fd{0, {2}, {0}})}).ok());
}

TEST(ServiceTest, ArmstrongEvictionSpillsTheSessionCheckpoint) {
  // Evict writes the session's own Checkpoint record: the universe
  // classification in extend order, and no consumer cursors.
  SolverService::Options options;
  options.spill_dir = ::testing::TempDir();
  SolverService service(options);
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  Result<SolverService::SessionId> id =
      service.OpenArmstrong(scheme, {Fd{0, {0}, {1}}}, {});
  ASSERT_TRUE(id.ok()) << id.status();
  std::vector<Dependency> universe = {
      Dependency(Fd{0, {0}, {1}}),
      Dependency(Fd{0, {0}, {2}}),
      Dependency(Fd{0, {1}, {0}}),
  };
  ASSERT_TRUE(service.Extend(*id, universe).ok());
  ASSERT_TRUE(service.Evict(*id).ok());

  Result<RestoredChain> chain = LoadSnapshotChain(
      scheme, ::testing::TempDir() + "/session_" + std::to_string(*id));
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_TRUE(chain->restored.consumer_cursors.empty());
  Result<SessionClassificationRecord> record =
      DeserializeSessionRecord(*scheme, chain->restored.aux);
  ASSERT_TRUE(record.ok()) << record.status();
  EXPECT_EQ(record->universe, universe);
  EXPECT_EQ(record->expected, (std::vector<bool>{true, false, false}));
}

TEST(ServiceTest, OpsOnTheWrongKindOrUnknownSessionFailCleanly) {
  SolverService service;
  SchemePtr scheme = RsScheme();
  Result<SolverService::SessionId> solve =
      service.OpenSolve(scheme, MixedSigma());
  ASSERT_TRUE(solve.ok());

  Result<std::vector<Fd>> wrong = service.MineSessionFds(*solve, 0);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);

  Result<Verdict> missing =
      service.Solve(9999, Dependency(Fd{0, {0}, {1}}));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(service.Close(*solve).ok());
  Result<Verdict> closed =
      service.Solve(*solve, Dependency(Fd{0, {0}, {1}}));
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.stats().sessions_resident, 0u);
}

TEST(ServiceTest, SessionIdsEncodeTheirShard) {
  SolverService service;
  SchemePtr scheme = RsScheme();
  for (int i = 0; i < 3; ++i) {
    Result<SolverService::SessionId> id =
        service.OpenSolve(scheme, MixedSigma());
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id % service.shard_count(), service.ShardOf(*scheme));
  }
}

TEST(ServiceTest, PerSessionWitnessCountersAreIsolated) {
  SolverService service;
  SchemePtr scheme = RsScheme();
  Result<SolverService::SessionId> a =
      service.OpenSolve(scheme, MixedSigma());
  Result<SolverService::SessionId> b =
      service.OpenSolve(scheme, MixedSigma());
  ASSERT_TRUE(a.ok() && b.ok());

  // A non-unary target routes to the mixed fragment, which probes the
  // witness cache (the unary decision engines never consult it).
  Dependency refuted(Fd{0, {1}, {0, 1}});
  // Session a: first solve admits a witness, second replays it.
  ImplicationSolver standalone(scheme, MixedSigma());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(service.Solve(*a, refuted).ok());
    ASSERT_TRUE(standalone.Solve(refuted).ok());
  }
  Result<SolverService::SessionStats> sa = service.Stats(*a);
  Result<SolverService::SessionStats> sb = service.Stats(*b);
  ASSERT_TRUE(sa.ok() && sb.ok());
  EXPECT_GT(sa->witness.admitted, 0u);
  EXPECT_GT(sa->witness.hits, 0u);
  // Session b never solved: its solver's cache is untouched.
  EXPECT_EQ(sb->witness.admitted, 0u);
  EXPECT_EQ(sb->witness.probes, 0u);

  // The session reports its solver's own counters, field by field.
  auto expect_equal = [](const WitnessCache::Stats& got,
                         const WitnessCache::Stats& want) {
    EXPECT_EQ(got.admitted, want.admitted);
    EXPECT_EQ(got.rejected, want.rejected);
    EXPECT_EQ(got.evicted, want.evicted);
    EXPECT_EQ(got.probes, want.probes);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.watcher_resets, want.watcher_resets);
    EXPECT_EQ(got.byte_evictions, want.byte_evictions);
  };
  WitnessCache::Stats first_life = standalone.witness_cache_stats();
  expect_equal(sa->witness, first_life);

  // After an eviction the revived session starts a fresh solver; its
  // stats are the sum of both lives.
  ASSERT_TRUE(service.Evict(*a).ok());
  ImplicationSolver second(scheme, MixedSigma());
  ASSERT_TRUE(service.Solve(*a, refuted).ok());
  ASSERT_TRUE(second.Solve(refuted).ok());
  WitnessCache::Stats second_life = second.witness_cache_stats();
  sa = service.Stats(*a);
  ASSERT_TRUE(sa.ok());
  EXPECT_EQ(sa->revivals, 1u);
  WitnessCache::Stats both = first_life;
  both.admitted += second_life.admitted;
  both.rejected += second_life.rejected;
  both.evicted += second_life.evicted;
  both.probes += second_life.probes;
  both.hits += second_life.hits;
  both.misses += second_life.misses;
  both.watcher_resets += second_life.watcher_resets;
  both.byte_evictions += second_life.byte_evictions;
  expect_equal(sa->witness, both);
}

TEST(ServiceTest, TrivialSigmaMemberKeepsServiceEvidenceEqualToStandalone) {
  // A trivial sigma member (here the RD R[B = B]) must not change what a
  // session's witness cache holds: the service's solve session and a
  // standalone solver must agree on every verdict and every piece of
  // evidence, also under a byte ceiling exactly the size of the
  // standalone solver's cache.
  SchemePtr scheme = RsScheme();
  Result<std::vector<Dependency>> sigma = ParseDependencies(
      *scheme, "R: A -> B\nR[A] <= S[C]\nR[B = B]");
  ASSERT_TRUE(sigma.ok()) << sigma.status();
  Result<Dependency> target = ParseDependency(*scheme, "R: B -> A");
  ASSERT_TRUE(target.ok()) << target.status();

  SolverService service;
  Result<SolverService::SessionId> id = service.OpenSolve(scheme, *sigma);
  ASSERT_TRUE(id.ok()) << id.status();
  ImplicationSolver standalone(scheme, *sigma);

  Result<Verdict> first_got = service.Solve(*id, *target);
  Result<Verdict> first_want = standalone.Solve(*target);
  ASSERT_TRUE(first_got.ok() && first_want.ok());
  ASSERT_TRUE(first_want->counterexample.has_value());

  // The standalone solver's cache after the first ask: one admitted
  // witness over the non-trivial members of sigma.
  std::vector<Dependency> nontrivial;
  for (const Dependency& dep : *sigma) {
    if (!IsTrivial(*scheme, dep)) nontrivial.push_back(dep);
  }
  ASSERT_EQ(nontrivial.size(), 2u);
  WitnessCache probe(scheme, nontrivial);
  ASSERT_TRUE(probe.Admit(*first_want->counterexample, *target).admitted);
  Budget tight;
  tight.bytes = probe.MemoryBytes();

  Result<Verdict> second_got = service.Solve(*id, *target, tight);
  Result<Verdict> second_want = standalone.Solve(*target, tight);
  ASSERT_TRUE(second_got.ok() && second_want.ok());

  auto render = [&](const Verdict& v) {
    std::string out = v.ToString(*scheme);
    if (v.counterexample.has_value()) {
      out += "\n" + v.counterexample->ToString();
    }
    return out;
  };
  EXPECT_EQ(render(*first_got), render(*first_want));
  EXPECT_EQ(render(*second_got), render(*second_want));
}

}  // namespace
}  // namespace ccfp
