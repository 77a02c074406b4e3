// Unit tests for the concurrent solver service (service/service.h): core
// deduplication with the zero-re-interning reuse proof, admission control
// (session capacity, in-flight ceiling, lifetime step budgets — always
// ResourceExhausted, never a wrong verdict), snapshot-backed eviction and
// revival for every session kind (a mining session spills only its own
// overlay, in a chain rooted at its core), and the per-session stats
// counters.
#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/parser.h"
#include "mine/discovery.h"
#include "service/shared_core.h"
#include "solve/solver.h"
#include "util/memory_budget.h"

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

  // A sigma member that does not fit the scheme is refused at Build, and
  // at open, before anything renders it for the identity.
  Result<std::shared_ptr<const SolverCore>> bad =
      SolverCore::Build(scheme, {Dependency(Fd{5, {0}, {1}})});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  SolverService service;
  Result<SolverService::SessionId> refused =
      service.OpenSolve(scheme, {Dependency(Fd{5, {0}, {1}})});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.stats().cores, 0u);
}

/// A fresh, empty spill directory private to one test.
std::string FreshSpillDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/ccfp_service_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(SolverCoreTest, IdentityCoversEveryWarmByte) {
  SchemePtr scheme = RsScheme();
  auto identity = [&](const Database& warm) {
    return SolverCore::Identity(*scheme, MixedSigma(), &warm);
  };
  auto db = [&](std::vector<Tuple> r, std::vector<Tuple> s) {
    Database out(scheme);
    for (Tuple& t : r) out.Insert(0, std::move(t));
    for (Tuple& t : s) out.Insert(1, std::move(t));
    return out;
  };
  Value one = Value::Int(1), two = Value::Int(2);
  Database base = db({{one, two}}, {{two, one}});

  // Equal inputs, equal identities (built separately, not copied).
  EXPECT_EQ(identity(base), identity(db({{one, two}}, {{two, one}})));

  // The kind of every value counts, not just its payload or its text.
  EXPECT_NE(identity(base),
            identity(db({{Value::Str("1"), two}}, {{two, one}})));
  EXPECT_NE(identity(base),
            identity(db({{Value::Null(1), two}}, {{two, one}})));

  // Values moving across a tuple boundary, a relation boundary or a
  // string boundary: the same value sequence, cut differently.
  Value three = Value::Int(3), four = Value::Int(4);
  EXPECT_NE(identity(db({{one, two}, {three, four}}, {})),
            identity(db({{one, two}}, {{three, four}})));
  SchemePtr wide = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D", "E", "F"}}});
  Database two_tuples(wide);
  two_tuples.Insert(0, {one, two});
  two_tuples.Insert(0, {three, four});
  Database one_tuple(wide);
  one_tuple.Insert(1, {one, two, three, four});
  EXPECT_NE(SolverCore::Identity(*wide, {}, &two_tuples),
            SolverCore::Identity(*wide, {}, &one_tuple));
  EXPECT_NE(identity(db({{Value::Str("ab"), Value::Str("c")}}, {})),
            identity(db({{Value::Str("a"), Value::Str("bc")}}, {})));

  // No warm data is not the same substrate as empty warm data.
  Database empty(scheme);
  EXPECT_NE(SolverCore::Identity(*scheme, MixedSigma()), identity(empty));
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
  options.spill_dir = FreshSpillDir("mining");
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

TEST(ServiceTest, MiningChainFoldsPastMaxDeltasAndStaysExact) {
  // More evictions than SnapshotChainWriter::kMaxDeltas: the core-rooted
  // chain collapses into one delta instead of writing a base, and every
  // revival mines exactly what a never-evicted twin mines.
  SolverService::Options options;
  options.spill_dir = FreshSpillDir("fold");
  SolverService service(options);
  SchemePtr scheme = RsScheme();
  Database data = WarmData(scheme);
  Result<SolverService::SessionId> id = service.OpenMine(scheme, data);
  Result<SolverService::SessionId> twin = service.OpenMine(scheme, data);
  ASSERT_TRUE(id.ok() && twin.ok());
  std::string prefix = options.spill_dir + "/session_" + std::to_string(*id);

  const std::size_t max_deltas = SnapshotChainWriter::kMaxDeltas;
  for (std::size_t round = 0; round < 2 * max_deltas + 3; ++round) {
    Database delta(scheme);
    std::int64_t v = static_cast<std::int64_t>(round);
    delta.Insert(round % 2, {Value::Int(100 + v), Value::Int(v % 3)});
    ASSERT_TRUE(service.Append(*id, delta).ok());
    ASSERT_TRUE(service.Append(*twin, delta).ok());
    ASSERT_TRUE(service.Evict(*id).ok()) << "round " << round;

    // Records 1..kMaxDeltas, then each collapse restarts the count at 1.
    std::size_t on_disk = round % max_deltas + 1;
    EXPECT_FALSE(std::filesystem::exists(prefix + ".base"));
    EXPECT_TRUE(std::filesystem::exists(
        prefix + ".delta." + std::to_string(on_disk)));
    EXPECT_FALSE(std::filesystem::exists(
        prefix + ".delta." + std::to_string(on_disk + 1)))
        << "round " << round;

    for (RelId rel = 0; rel < scheme->size(); ++rel) {
      Result<std::vector<Fd>> got = service.MineSessionFds(*id, rel);
      Result<std::vector<Fd>> want = service.MineSessionFds(*twin, rel);
      ASSERT_TRUE(got.ok() && want.ok()) << got.status();
      EXPECT_EQ(*got, *want) << "round " << round;
    }
    Result<std::vector<Ind>> got_inds = service.MineSessionInds(*id);
    Result<std::vector<Ind>> want_inds = service.MineSessionInds(*twin);
    ASSERT_TRUE(got_inds.ok() && want_inds.ok());
    EXPECT_EQ(*got_inds, *want_inds) << "round " << round;
    Result<std::vector<Rd>> got_rds = service.MineSessionRds(*id);
    Result<std::vector<Rd>> want_rds = service.MineSessionRds(*twin);
    ASSERT_TRUE(got_rds.ok() && want_rds.ok());
    EXPECT_EQ(*got_rds, *want_rds) << "round " << round;

    Result<SolverService::SessionStats> got_stats = service.Stats(*id);
    Result<SolverService::SessionStats> want_stats = service.Stats(*twin);
    ASSERT_TRUE(got_stats.ok() && want_stats.ok());
    EXPECT_EQ(got_stats->revivals, round + 1);
    EXPECT_EQ(got_stats->values_interned, want_stats->values_interned);
    // Every mining op charges the session's alive tuple count, so equal
    // charges mean the revived session holds exactly the twin's tuples.
    EXPECT_EQ(got_stats->steps_used, want_stats->steps_used);
  }
}

/// Every file under `dir` with its bytes.
std::map<std::string, std::string> FilesUnder(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    out[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return out;
}

TEST(ServiceTest, ReadOnlyMiningLivesEvictWithoutWritingARecord) {
  // After the first spill, a life that only mines leaves the journal
  // empty and the interner where the last record left it: the chain tip
  // already holds the state, so Evict writes nothing and pays no fsync.
  SolverService::Options options;
  options.spill_dir = FreshSpillDir("read_only");
  SolverService service(options);
  SchemePtr scheme = RsScheme();
  Database data = WarmData(scheme);
  Result<SolverService::SessionId> id = service.OpenMine(scheme, data);
  Result<SolverService::SessionId> twin = service.OpenMine(scheme, data);
  ASSERT_TRUE(id.ok() && twin.ok());
  std::string prefix = "session_" + std::to_string(*id);

  Database delta(scheme);
  delta.Insert(0, {Value::Int(1), Value::Int(99)});
  ASSERT_TRUE(service.Append(*id, delta).ok());
  ASSERT_TRUE(service.Append(*twin, delta).ok());
  ASSERT_TRUE(service.Evict(*id).ok());
  const std::map<std::string, std::string> spilled =
      FilesUnder(options.spill_dir);
  ASSERT_EQ(spilled.count(prefix + ".delta.1"), 1u);
  EXPECT_EQ(spilled.count(prefix + ".delta.2"), 0u);

  for (int life = 0; life < 3; ++life) {
    Result<std::vector<Fd>> fds = service.MineSessionFds(*id, 0);
    ASSERT_TRUE(fds.ok()) << fds.status();
    ASSERT_TRUE(service.Evict(*id).ok()) << "life " << life;
    EXPECT_EQ(FilesUnder(options.spill_dir), spilled) << "life " << life;
  }

  for (RelId rel = 0; rel < scheme->size(); ++rel) {
    Result<std::vector<Fd>> got = service.MineSessionFds(*id, rel);
    Result<std::vector<Fd>> want = service.MineSessionFds(*twin, rel);
    ASSERT_TRUE(got.ok() && want.ok()) << got.status();
    EXPECT_EQ(*got, *want);
  }
  Result<std::vector<Ind>> got_inds = service.MineSessionInds(*id);
  Result<std::vector<Ind>> want_inds = service.MineSessionInds(*twin);
  ASSERT_TRUE(got_inds.ok() && want_inds.ok());
  EXPECT_EQ(*got_inds, *want_inds);
  Result<std::vector<Rd>> got_rds = service.MineSessionRds(*id);
  Result<std::vector<Rd>> want_rds = service.MineSessionRds(*twin);
  ASSERT_TRUE(got_rds.ok() && want_rds.ok());
  EXPECT_EQ(*got_rds, *want_rds);
  Result<SolverService::SessionStats> stats = service.Stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->evictions, 4u);
  EXPECT_EQ(stats->revivals, 4u);
}

TEST(ServiceTest, MiningSpillIgnoresAForeignChainUnderItsPrefix) {
  // Session ids restart at 0 in every service, so a new service over an
  // old spill_dir reuses the old sessions' prefixes. The session's chain
  // is rooted at its core and never reads `.base`; its first spill
  // clears the prefix, so no foreign record can follow its own.
  std::string dir = FreshSpillDir("foreign");
  SchemePtr scheme = RsScheme();
  Database data = WarmData(scheme);
  Database delta(scheme);
  delta.Insert(0, {Value::Int(1), Value::Int(99)});

  // Two foreign chains the first session's prefix could meet: one a file
  // chain over unrelated tuples (.base, .delta.1, .delta.2), one left by
  // an earlier service that ran the same session one step further — its
  // `.delta.1` is byte-identical to the new session's first spill, so
  // only the prefix clearing keeps its `.delta.2` out.
  auto plant_file_chain = [&](const std::string& prefix) {
    InternedWorkspace foreign(scheme);
    SnapshotChainWriter writer(prefix);
    for (std::int64_t k = 0; k < 3; ++k) {
      foreign.Append(0, {foreign.Intern(Value::Int(500 + k)),
                         foreign.Intern(Value::Int(600 + k))});
      ASSERT_TRUE(writer.Save(foreign).ok());
    }
    ASSERT_TRUE(std::filesystem::exists(prefix + ".base"));
    ASSERT_TRUE(std::filesystem::exists(prefix + ".delta.2"));
  };
  auto plant_earlier_service = [&]() {
    SolverService::Options options;
    options.spill_dir = dir;
    SolverService earlier(options);
    Result<SolverService::SessionId> id = earlier.OpenMine(scheme, data);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(earlier.Append(*id, delta).ok());
    ASSERT_TRUE(earlier.Evict(*id).ok());
    Database more(scheme);
    more.Insert(1, {Value::Int(42), Value::Int(43)});
    ASSERT_TRUE(earlier.Append(*id, more).ok());
    ASSERT_TRUE(earlier.Evict(*id).ok());
  };

  Database expected = data;
  expected.Insert(0, {Value::Int(1), Value::Int(99)});
  for (int variant = 0; variant < 2; ++variant) {
    SCOPED_TRACE(variant == 0 ? "foreign file chain" : "earlier service");
    SolverService::Options options;
    options.spill_dir = dir;
    SolverService service(options);
    // The first mining session over this scheme gets the shard's first id.
    std::string prefix =
        dir + "/session_" + std::to_string(service.ShardOf(*scheme));
    if (variant == 0) {
      plant_file_chain(prefix);
    } else {
      plant_earlier_service();
    }
    ASSERT_TRUE(std::filesystem::exists(prefix + ".delta.2"));

    Result<SolverService::SessionId> id = service.OpenMine(scheme, data);
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(dir + "/session_" + std::to_string(*id), prefix);
    ASSERT_TRUE(service.Append(*id, delta).ok());
    ASSERT_TRUE(service.Evict(*id).ok());
    EXPECT_FALSE(std::filesystem::exists(prefix + ".base"));
    EXPECT_TRUE(std::filesystem::exists(prefix + ".delta.1"));
    EXPECT_FALSE(std::filesystem::exists(prefix + ".delta.2"));

    // Revival replays exactly the session's own record.
    Result<std::vector<Ind>> inds = service.MineSessionInds(*id);
    ASSERT_TRUE(inds.ok()) << inds.status();
    EXPECT_EQ(*inds, MineInds(expected));
    for (RelId rel = 0; rel < scheme->size(); ++rel) {
      Result<std::vector<Fd>> fds = service.MineSessionFds(*id, rel);
      ASSERT_TRUE(fds.ok());
      EXPECT_EQ(*fds, MineFds(expected, rel));
    }
    Result<std::shared_ptr<const SolverCore>> core =
        SolverCore::Build(scheme, {}, &data);
    ASSERT_TRUE(core.ok());
    InternedWorkspace root = (*core)->ForkWorkspace();
    root.MarkJournalPersisted((*core)->identity());
    Result<RestoredChain> chain =
        LoadSnapshotChain(scheme, prefix, std::move(root));
    ASSERT_TRUE(chain.ok()) << chain.status();
    EXPECT_EQ(chain->deltas_applied, 1u);
    EXPECT_EQ(chain->restored.ws.Materialize(), expected);
  }
}

TEST(ServiceTest, RevivalRefusesAChainShortOfTheLastSpill) {
  // A spill chain that ends before the session's last record (a lost
  // file) would revive stale state: revival refuses, and the session
  // stays evicted.
  SolverService::Options options;
  options.spill_dir = FreshSpillDir("short");
  SolverService service(options);
  SchemePtr scheme = RsScheme();
  Result<SolverService::SessionId> id =
      service.OpenMine(scheme, WarmData(scheme));
  ASSERT_TRUE(id.ok());
  for (std::int64_t k = 0; k < 2; ++k) {
    Database delta(scheme);
    delta.Insert(1, {Value::Int(50 + k), Value::Int(k)});
    ASSERT_TRUE(service.Append(*id, delta).ok());
    ASSERT_TRUE(service.Evict(*id).ok());
  }
  std::string prefix = options.spill_dir + "/session_" + std::to_string(*id);
  ASSERT_TRUE(std::filesystem::remove(prefix + ".delta.2"));

  Result<std::vector<Ind>> refused = service.MineSessionInds(*id);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  Result<SolverService::SessionStats> stats = service.Stats(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->evicted);
  EXPECT_EQ(stats->revivals, 1u);
}

TEST(ServiceTest, RevivedMiningSessionCountsItsOwnSubstrateWork) {
  // Revival is fork + replay: the replayed interner growth is not counted
  // again, the premined partitions come back from the core for free, and
  // a partition the core did not premine is compiled (and counted) again
  // the first time the revived session needs it.
  SolverService::Options options;
  options.spill_dir = FreshSpillDir("stats");
  SolverService service(options);
  SchemePtr scheme = RsScheme();
  Database data = WarmData(scheme);
  Result<SolverService::SessionId> id = service.OpenMine(scheme, data);
  ASSERT_TRUE(id.ok());
  Database delta(scheme);
  delta.Insert(0, {Value::Int(7), Value::Int(77)});  // 77 is new
  ASSERT_TRUE(service.Append(*id, delta).ok());
  IndMiningOptions wide;  // width 2: projections the core never compiled
  wide.max_width = 2;
  ASSERT_TRUE(service.MineSessionFds(*id, 0).ok());
  ASSERT_TRUE(service.MineSessionInds(*id, wide).ok());
  Result<SolverService::SessionStats> before = service.Stats(*id);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->values_interned, 1u);
  std::uint64_t built = before->partitions_built;
  ASSERT_GT(built, 0u);

  ASSERT_TRUE(service.Evict(*id).ok());
  ASSERT_TRUE(service.MineSessionFds(*id, 0).ok());  // premined: free
  Result<SolverService::SessionStats> revived = service.Stats(*id);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ(revived->values_interned, 1u);
  EXPECT_EQ(revived->partitions_built, built);

  ASSERT_TRUE(service.MineSessionInds(*id, wide).ok());
  Result<SolverService::SessionStats> remined = service.Stats(*id);
  ASSERT_TRUE(remined.ok());
  EXPECT_EQ(remined->values_interned, 1u);
  EXPECT_EQ(remined->partitions_built, 2 * built);
}

TEST(ServiceTest, ResidentBytesCountTheJournalUntilTheNextSpill) {
  // A mining session journals every append from OpenMine on, and only a
  // spill drops the journal: resident_bytes grows with each append, reads
  // 0 while evicted, and a revived session (journal persisted) holds less
  // than the same state did before its spill.
  SolverService::Options options;
  options.spill_dir = FreshSpillDir("resident");
  SolverService service(options);
  SchemePtr scheme = RsScheme();
  Result<SolverService::SessionId> id =
      service.OpenMine(scheme, WarmData(scheme));
  ASSERT_TRUE(id.ok());
  Result<SolverService::SessionStats> opened = service.Stats(*id);
  ASSERT_TRUE(opened.ok());
  std::uint64_t resident = opened->resident_bytes;
  EXPECT_GT(resident, 0u);
  for (std::int64_t k = 0; k < 4; ++k) {
    Database delta(scheme);
    delta.Insert(0, {Value::Int(100 + k), Value::Int(10)});
    delta.Insert(1, {Value::Int(200 + k), Value::Int(7)});
    ASSERT_TRUE(service.Append(*id, delta).ok());
    Result<SolverService::SessionStats> grown = service.Stats(*id);
    ASSERT_TRUE(grown.ok());
    EXPECT_GT(grown->resident_bytes, resident) << "append " << k;
    resident = grown->resident_bytes;
  }
  auto mine_all = [&] {
    ASSERT_TRUE(service.MineSessionFds(*id, 0).ok());
    ASSERT_TRUE(service.MineSessionInds(*id).ok());
  };
  mine_all();
  Result<SolverService::SessionStats> before = service.Stats(*id);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(service.Evict(*id).ok());
  Result<SolverService::SessionStats> evicted = service.Stats(*id);
  ASSERT_TRUE(evicted.ok());
  EXPECT_TRUE(evicted->evicted);
  EXPECT_EQ(evicted->resident_bytes, 0u);

  mine_all();  // revives, then reads the same partitions as before
  Result<SolverService::SessionStats> revived = service.Stats(*id);
  ASSERT_TRUE(revived.ok());
  EXPECT_FALSE(revived->evicted);
  EXPECT_GT(revived->resident_bytes, 0u);
  EXPECT_LT(revived->resident_bytes, before->resident_bytes)
      << "the revived session still charges a journal";
}

TEST(ServiceTest, ResidentBytesLeaveOutTheCoresSharedValueTable) {
  // A mining session's fork shares its core's frozen value table, so the
  // session is charged its fork's bytes minus exactly that table; the
  // union-find cells, which each fork copies, stay charged.
  SolverService service;
  SchemePtr scheme = RsScheme();
  Database warm = WarmData(scheme);
  Result<SolverService::SessionId> id = service.OpenMine(scheme, warm);
  ASSERT_TRUE(id.ok());
  Result<SolverService::SessionStats> opened = service.Stats(*id);
  ASSERT_TRUE(opened.ok());

  // The same fork outside the service: nothing interned locally yet, so
  // every value (and every ascending null) is the frozen base's.
  Result<std::shared_ptr<const SolverCore>> core =
      SolverCore::Build(scheme, {}, &warm);
  ASSERT_TRUE(core.ok()) << core.status();
  InternedWorkspace fork = (*core)->ForkWorkspace();
  const ValueInterner& interner = fork.interner();
  std::uint64_t values = interner.base_size();
  std::uint64_t nulls = interner.ascending_nulls();
  ASSERT_GT(values, 0u);
  ASSERT_EQ(interner.size(), values);
  // The frozen table: each value, the slot array indexing the hashed ones
  // (8-byte slots, at most half full, 16 at least) and the ascending nulls.
  std::uint64_t hashed = values - nulls;
  std::uint64_t slots =
      hashed == 0 ? 0 : std::max<std::uint64_t>(16, std::bit_ceil(2 * hashed));
  std::uint64_t shared = values * sizeof(Value) +
                         slots * 2 * sizeof(std::uint32_t) +
                         nulls * sizeof(ValueInterner::NullEntry);
  EXPECT_EQ(fork.SharedInternerBytes(), shared);
  EXPECT_EQ(opened->resident_bytes, fork.MemoryUsage().Total() - shared);
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
  options.spill_dir = FreshSpillDir("armstrong");
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
  options.spill_dir = FreshSpillDir("checkpoint");
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
      scheme, options.spill_dir + "/session_" + std::to_string(*id));
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
