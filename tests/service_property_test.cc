// The service determinism property (the PR's acceptance bar): N
// concurrent sessions, each driven by its own caller thread and served
// from one shared core, produce verdicts AND evidence bit-identical to a
// standalone sequential ImplicationSolver running the same per-session
// query streams — including queries that exhaust their step budget
// mid-flight and sessions that are evicted and revived between queries.
// Also: random append/mine/evict/revive traces on mining sessions, whose
// revival is fork + replay of a chain rooted at the shared core, against
// a never-evicted twin. Runs under TSan and ASan via the property label.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/dependency.h"
#include "core/schema.h"
#include "core/snapshot.h"
#include "mine/discovery.h"
#include "service/service.h"
#include "service/shared_core.h"
#include "solve/solver.h"
#include "tests/trace_util.h"
#include "util/budget.h"
#include "util/rng.h"

namespace ccfp {
namespace {

SchemePtr RsScheme() {
  return MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
}

std::vector<Dependency> MixedSigma() {
  return {Dependency(Fd{0, {0}, {1}}), Dependency(Ind{0, {0}, 1, {0}})};
}

struct Query {
  Dependency target;
  Budget budget;
};

/// One session's query stream: implied members, refuted targets (the
/// bounded search finds counterexamples), trivia, a deliberately starved
/// query (Budget::Tiny starves the evidence search) to pin the mid-flight
/// exhaustion behavior, and a chase stopped at its tuple ceiling, asked
/// twice: the second ask replays the solver's chase memo unless the
/// session was evicted in between. Streams differ per session so the
/// comparison is not accidentally symmetric.
std::vector<Query> QueryStream(std::size_t session) {
  Budget step_budget;           // counter-only: no deadline, deterministic
  Budget tuple_starved;         // one tuple per stage share
  tuple_starved.tuples = 3;
  const Dependency wide(Ind{0, {0, 1}, 1, {0, 1}});  // mixed, refutable
  std::vector<Query> all = {
      {Dependency(Fd{0, {0}, {1}}), step_budget},      // member: implied
      {wide, tuple_starved},                           // chase capped
      {Dependency(Fd{0, {1}, {0}}), step_budget},      // refuted
      {wide, tuple_starved},                           // chase memo replay
      {Dependency(Ind{1, {0}, 0, {0}}), step_budget},  // reverse: refuted
      {Dependency(Fd{0, {0}, {0, 1}}), step_budget},   // equivalent member
      {Dependency(Ind{0, {1}, 1, {1}}), step_budget},  // refuted
      {Dependency(Fd{0, {1}, {0}}), Budget::Tiny()},   // starved evidence
      {Dependency(Fd{0, {1}, {0}}), step_budget},      // cache replay
  };
  // Rotate so sessions issue different orders (and hence different
  // private-cache histories) while staying individually deterministic.
  std::vector<Query> stream;
  stream.reserve(all.size());
  for (std::size_t k = 0; k < all.size(); ++k) {
    stream.push_back(all[(k + session) % all.size()]);
  }
  return stream;
}

/// The full observable answer, rendered: outcome, route, engine, reason,
/// stage reports with their budget use, and the counterexample bytes.
std::string Render(const Verdict& v, const DatabaseScheme& scheme) {
  std::string s = v.ToString(scheme);
  if (v.counterexample.has_value()) {
    s += "\n--counterexample--\n";
    s += v.counterexample->ToString();
    s += v.counterexample_verified ? "\n(verified)" : "\n(unverified)";
  }
  return s;
}

/// The sequential ground truth for one session's stream: a fresh
/// standalone solver (private caches), queries in order.
std::vector<std::string> SequentialReference(const SchemePtr& scheme,
                                             std::size_t session,
                                             const SolveOptions& base) {
  ImplicationSolver solver(scheme, MixedSigma(), base);
  std::vector<std::string> out;
  for (const Query& q : QueryStream(session)) {
    Result<Verdict> v = solver.Solve(q.target, q.budget);
    out.push_back(v.ok() ? Render(*v, *scheme) : v.status().ToString());
  }
  return out;
}

TEST(ServicePropertyTest, ConcurrentSessionsMatchSequential) {
  SchemePtr scheme = RsScheme();
  constexpr std::size_t kSessions = 4;

  std::vector<std::vector<std::string>> want;
  for (std::size_t s = 0; s < kSessions; ++s) {
    want.push_back(SequentialReference(scheme, s, SolveOptions()));
  }

  SolverService service;
  std::vector<SolverService::SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    Result<SolverService::SessionId> id =
        service.OpenSolve(scheme, MixedSigma());
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }
  // The Nth session adopted the first's core.
  EXPECT_EQ(service.stats().cores, 1u);
  EXPECT_EQ(service.stats().core_reuses, kSessions - 1);

  std::vector<std::vector<std::string>> got(kSessions);
  {
    std::vector<std::thread> callers;
    callers.reserve(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      callers.emplace_back([&, s] {
        for (const Query& q : QueryStream(s)) {
          Result<Verdict> v = service.Solve(ids[s], q.target, q.budget);
          got[s].push_back(v.ok() ? Render(*v, *scheme)
                                  : v.status().ToString());
        }
      });
    }
    for (std::thread& t : callers) t.join();
  }

  for (std::size_t s = 0; s < kSessions; ++s) {
    ASSERT_EQ(got[s].size(), want[s].size());
    for (std::size_t k = 0; k < want[s].size(); ++k) {
      EXPECT_EQ(got[s][k], want[s][k]) << "session " << s << " query " << k;
    }
  }
}

TEST(ServicePropertyTest, EvictionMidStreamPreservesDeterminism) {
  // With the witness cache off, the only state a solver carries across
  // queries is its chase memo, and verdicts cannot see the memo. So
  // dropping and reviving the session's engines mid-stream must be
  // invisible — the whole stream still matches the uninterrupted
  // sequential reference bit-for-bit. Sessions 1-3 evict between the
  // memo's admission of the capped chase and its replay.
  SchemePtr scheme = RsScheme();
  constexpr std::size_t kSessions = 4;
  SolveOptions cacheless;
  cacheless.use_witness_cache = false;

  std::vector<std::vector<std::string>> want;
  for (std::size_t s = 0; s < kSessions; ++s) {
    want.push_back(SequentialReference(scheme, s, cacheless));
  }

  SolverService::Options options;
  options.solve = cacheless;
  SolverService service(options);

  std::vector<SolverService::SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    Result<SolverService::SessionId> id =
        service.OpenSolve(scheme, MixedSigma());
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }

  std::vector<std::vector<std::string>> got(kSessions);
  std::vector<std::thread> callers;
  for (std::size_t s = 0; s < kSessions; ++s) {
    callers.emplace_back([&, s] {
      std::size_t k = 0;
      for (const Query& q : QueryStream(s)) {
        // Each session evicts itself at a different point in its stream;
        // revival happens inside the next Solve.
        if (k++ == s) ASSERT_TRUE(service.Evict(ids[s]).ok());
        Result<Verdict> v = service.Solve(ids[s], q.target, q.budget);
        got[s].push_back(v.ok() ? Render(*v, *scheme)
                                : v.status().ToString());
      }
    });
  }
  for (std::thread& t : callers) t.join();

  for (std::size_t s = 0; s < kSessions; ++s) {
    ASSERT_EQ(got[s].size(), want[s].size());
    for (std::size_t k = 0; k < want[s].size(); ++k) {
      EXPECT_EQ(got[s][k], want[s][k]) << "session " << s << " query " << k;
    }
  }
}

TEST(ServicePropertyTest, ConcurrentMiningSessionsAgreeWithDirectMining) {
  SchemePtr scheme = RsScheme();
  Database data(scheme);
  data.Insert(0, {Value::Int(1), Value::Int(10)});
  data.Insert(0, {Value::Int(2), Value::Int(10)});
  data.Insert(0, {Value::Int(3), Value::Int(30)});
  data.Insert(1, {Value::Int(1), Value::Int(7)});
  data.Insert(1, {Value::Int(2), Value::Int(7)});

  std::vector<Fd> want_fds = MineFds(data, 0);
  std::vector<Ind> want_inds = MineInds(data);

  SolverService service;
  constexpr std::size_t kSessions = 4;
  std::vector<SolverService::SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    Result<SolverService::SessionId> id = service.OpenMine(scheme, data);
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }
  EXPECT_EQ(service.stats().cores, 1u);

  std::vector<std::thread> callers;
  for (std::size_t s = 0; s < kSessions; ++s) {
    callers.emplace_back([&, s] {
      for (int round = 0; round < 3; ++round) {
        Result<std::vector<Fd>> fds = service.MineSessionFds(ids[s], 0);
        Result<std::vector<Ind>> inds = service.MineSessionInds(ids[s]);
        ASSERT_TRUE(fds.ok() && inds.ok());
        EXPECT_EQ(*fds, want_fds);
        EXPECT_EQ(*inds, want_inds);
      }
    });
  }
  for (std::thread& t : callers) t.join();

  // Every session mined purely from the shared core's sealed capital.
  for (std::size_t s = 0; s < kSessions; ++s) {
    Result<SolverService::SessionStats> stats = service.Stats(ids[s]);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->values_interned, 0u);
    EXPECT_EQ(stats->partitions_built, 0u);
  }
}

/// A random value from a small domain, so appends collide with the warm
/// data, with each other, and with earlier appends (duplicates included).
Value RandomValue(SplitMix64& rng) {
  std::int64_t v = static_cast<std::int64_t>(rng.Below(12));
  return rng.Below(5) == 0 ? Value::Str("s" + std::to_string(v))
                           : Value::Int(v);
}

Database RandomRows(const SchemePtr& scheme, SplitMix64& rng,
                    std::size_t rows) {
  Database db(scheme);
  for (std::size_t i = 0; i < rows; ++i) {
    RelId rel = static_cast<RelId>(rng.Below(scheme->size()));
    Tuple t;
    for (std::size_t c = 0; c < scheme->relation(rel).arity(); ++c) {
      t.push_back(RandomValue(rng));
    }
    db.Insert(rel, std::move(t));
  }
  return db;
}

std::string FreshSpillDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/ccfp_service_property_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

class MiningRevivalPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// Two mining sessions over one core receive the same random appends and
// mining ops; one of them is also evicted at random points, then evicted
// until its chain has passed kMaxDeltas records, so it collapses too.
// Every answer must match the never-evicted twin's. The counters:
// `values_interned` always matches (the replayed growth is not counted
// twice). Every projection mined
// here with default options was premined by the core, so
// `partitions_built` stays 0 on both. Had the core not premined them,
// each revival would compile them again when next needed and count them
// again, so the evicted session would read >= its twin (pinned exactly
// in ServiceTest.RevivedMiningSessionCountsItsOwnSubstrateWork).
TEST_P(MiningRevivalPropertyTest, RevivedSessionMinesLikeItsTwin) {
  SplitMix64 rng(GetParam() * 0x9E3779B97F4A7C15ull + 17);
  SchemePtr scheme = testutil::RandomScheme(rng);
  Database warm = RandomRows(scheme, rng, 20 + rng.Below(30));

  SolverService::Options options;
  options.spill_dir = FreshSpillDir("service_" + std::to_string(GetParam()));
  SolverService service(options);
  Result<SolverService::SessionId> evicted = service.OpenMine(scheme, warm);
  Result<SolverService::SessionId> twin = service.OpenMine(scheme, warm);
  ASSERT_TRUE(evicted.ok() && twin.ok());

  // Every eviction of a resident session that added a tuple since the
  // last record writes one record, and so does the first; an eviction
  // after a life that added nothing writes none. `held` models the
  // session's tuples, so a delta of duplicates counts as adding nothing.
  std::uint64_t evictions = 0, records = 0;
  bool resident = true;  // Evict of an evicted session is a no-op
  bool dirty = false;
  Database held = warm;
  auto append = [&](const Database& delta) {
    ASSERT_TRUE(service.Append(*evicted, delta).ok());
    ASSERT_TRUE(service.Append(*twin, delta).ok());
    for (RelId rel = 0; rel < scheme->size(); ++rel) {
      for (const Tuple& t : delta.relation(rel).tuples()) {
        dirty |= held.Insert(rel, t);
      }
    }
  };
  auto evict = [&] {
    ASSERT_TRUE(service.Evict(*evicted).ok());
    if (!resident) return;
    ++evictions;
    if (dirty || records == 0) ++records;
    dirty = false;
    resident = false;
  };
  for (int step = 0; step < 40; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::uint64_t op = rng.Below(4);
    if (op == 2) {
      evict();
      continue;
    }
    resident = true;  // every other op revives
    switch (op) {
      case 0:
      case 1:
        append(RandomRows(scheme, rng, 1 + rng.Below(4)));
        break;
      default: {
        RelId rel = static_cast<RelId>(rng.Below(scheme->size()));
        Result<std::vector<Fd>> got = service.MineSessionFds(*evicted, rel);
        Result<std::vector<Fd>> want = service.MineSessionFds(*twin, rel);
        ASSERT_TRUE(got.ok() && want.ok()) << got.status();
        EXPECT_EQ(*got, *want);
        Result<std::vector<Ind>> got_inds = service.MineSessionInds(*evicted);
        Result<std::vector<Ind>> want_inds = service.MineSessionInds(*twin);
        ASSERT_TRUE(got_inds.ok() && want_inds.ok());
        EXPECT_EQ(*got_inds, *want_inds);
        Result<std::vector<Rd>> got_rds = service.MineSessionRds(*evicted);
        Result<std::vector<Rd>> want_rds = service.MineSessionRds(*twin);
        ASSERT_TRUE(got_rds.ok() && want_rds.ok());
        EXPECT_EQ(*got_rds, *want_rds);
        break;
      }
    }
  }
  // Past kMaxDeltas the core-rooted chain collapses to one delta and
  // regrows, so only the records since the last collapse are on disk.
  while (records <= SnapshotChainWriter::kMaxDeltas) {
    resident = true;  // the append revives
    append(RandomRows(scheme, rng, 1));
    evict();
  }
  std::string prefix =
      options.spill_dir + "/session_" + std::to_string(*evicted) + ".delta.";
  std::uint64_t on_disk = (records - 1) % SnapshotChainWriter::kMaxDeltas + 1;
  EXPECT_TRUE(std::filesystem::exists(prefix + std::to_string(on_disk)));
  EXPECT_FALSE(std::filesystem::exists(prefix + std::to_string(on_disk + 1)))
      << "the chain never collapsed";
  for (RelId rel = 0; rel < scheme->size(); ++rel) {
    Result<std::vector<Fd>> got = service.MineSessionFds(*evicted, rel);
    Result<std::vector<Fd>> want = service.MineSessionFds(*twin, rel);
    ASSERT_TRUE(got.ok() && want.ok()) << got.status();
    EXPECT_EQ(*got, *want);
  }
  // Revive (if evicted) and compare the counters.
  ASSERT_TRUE(service.MineSessionInds(*evicted).ok());
  ASSERT_TRUE(service.MineSessionInds(*twin).ok());
  Result<SolverService::SessionStats> got = service.Stats(*evicted);
  Result<SolverService::SessionStats> want = service.Stats(*twin);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got->evictions, evictions);
  // Mining ops charge the alive tuple count: equal charges, equal tuples.
  EXPECT_EQ(got->steps_used, want->steps_used);
  EXPECT_EQ(got->values_interned, want->values_interned);
  EXPECT_EQ(got->partitions_built, 0u);
  EXPECT_EQ(want->partitions_built, 0u);
  std::filesystem::remove_all(options.spill_dir);
}

// The substrate under the service: a fork journaling against the core's
// identity, spilled through a core-rooted chain and revived as a fresh
// fork plus replay, must materialize exactly like a never-spilled fork
// that saw the same appends, and mine the same.
TEST_P(MiningRevivalPropertyTest, ForkPlusReplayMaterializesLikeTheTwin) {
  SplitMix64 rng(GetParam() * 0xBF58476D1CE4E5B9ull + 5);
  SchemePtr scheme = testutil::RandomScheme(rng);
  Database warm = RandomRows(scheme, rng, 20 + rng.Below(30));
  Result<std::shared_ptr<const SolverCore>> core =
      SolverCore::Build(scheme, {}, &warm);
  ASSERT_TRUE(core.ok()) << core.status();
  auto rooted_fork = [&] {
    InternedWorkspace fork = (*core)->ForkWorkspace();
    fork.MarkJournalPersisted((*core)->identity());
    return fork;
  };

  std::string dir = FreshSpillDir("fork_" + std::to_string(GetParam()));
  SnapshotChainWriter writer =
      SnapshotChainWriter::RootedAt(dir + "/chain", (*core)->identity());
  InternedWorkspace live = rooted_fork();
  live.EnableJournal();
  InternedWorkspace twin = (*core)->ForkWorkspace();

  // Spill and revive as fork + replay; count the saves that collapsed
  // the chain instead of growing it.
  std::size_t collapses = 0;
  auto spill_and_revive = [&] {
    std::size_t before = writer.delta_count();
    ASSERT_TRUE(writer.Save(live).ok());
    EXPECT_LE(writer.delta_count(), SnapshotChainWriter::kMaxDeltas);
    collapses += writer.delta_count() <= before ? 1 : 0;
    Result<RestoredChain> chain =
        LoadSnapshotChain(scheme, writer.prefix(), rooted_fork());
    ASSERT_TRUE(chain.ok()) << chain.status();
    live = std::move(chain->restored.ws);
    writer.Adopt(*chain);
  };
  // A random phase, then spills until the chain has collapsed once.
  for (int step = 0; step < 30 || collapses == 0; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step < 30 && rng.Below(3) != 0) {
      Database delta = RandomRows(scheme, rng, 1 + rng.Below(4));
      live.AppendDatabase(delta);
      twin.AppendDatabase(delta);
    } else {
      spill_and_revive();
    }
    ASSERT_EQ(live.Materialize(), twin.Materialize());
    EXPECT_EQ(live.stats().values_interned, twin.stats().values_interned);
    EXPECT_EQ(live.stats().tuples_appended, twin.stats().tuples_appended);
  }
  for (RelId rel = 0; rel < scheme->size(); ++rel) {
    EXPECT_EQ(MineFds(live, rel), MineFds(twin, rel));
  }
  EXPECT_EQ(MineInds(live), MineInds(twin));
  EXPECT_EQ(MineRds(live), MineRds(twin));
  EXPECT_FALSE(std::filesystem::exists(writer.BasePath()));
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MiningRevivalPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace ccfp
