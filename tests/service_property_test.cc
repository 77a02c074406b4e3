// The service determinism property (the PR's acceptance bar): N
// concurrent sessions, each driven by its own caller thread and served
// from one shared core, produce verdicts AND evidence bit-identical to a
// standalone sequential ImplicationSolver running the same per-session
// query streams — including queries that exhaust their step budget
// mid-flight and sessions that are evicted and revived between queries.
// Runs under TSan and ASan via the property label.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/dependency.h"
#include "core/schema.h"
#include "mine/discovery.h"
#include "service/service.h"
#include "solve/solver.h"
#include "util/budget.h"

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

}  // namespace
}  // namespace ccfp
