// Perf smoke test (ctest -L smoke): the delta-driven chase engine must
// chew through a deep IND cascade in well under a second. The naive
// engine's restart loop is O(depth^2) on this shape; the incremental
// engine is O(total tuples), so a regression back to rescan-the-world
// behavior fails here fast instead of surfacing as a slow bench.
#include <chrono>
#include <gtest/gtest.h>

#include "bench/workloads.h"
#include "chase/chase.h"
#include "chase/workspace_chase.h"
#include "core/parser.h"
#include "core/satisfies.h"
#include "reference/chase.h"

namespace ccfp {
namespace {

TEST(ChaseSmokeTest, DeepCascadeFinishesFast) {
  constexpr std::size_t kLevels = 96;
  constexpr std::size_t kWidth = 8;
  CascadeInstance instance = MakeDeepCascade(kLevels);
  Database seed = CascadeSeed(instance, kWidth);
  Chase chase(instance.scheme, instance.fds, instance.inds);

  auto start = std::chrono::steady_clock::now();
  Result<ChaseResult> result = chase.Run(seed);
  auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint);
  // R_0 keeps its seed (the shared-A pair merges B but still differs on
  // C); every deeper level holds the distinct [A, B] projections.
  EXPECT_EQ(result->db.relation(0).size(), kWidth + 2);
  for (RelId rel = 1; rel <= kLevels; ++rel) {
    EXPECT_EQ(result->db.relation(rel).size(), kWidth + 1);
  }
  EXPECT_GE(result->fd_merges, 1u);
  for (const Fd& fd : instance.fds) EXPECT_TRUE(Satisfies(result->db, fd));
  for (const Ind& ind : instance.inds) {
    EXPECT_TRUE(Satisfies(result->db, ind));
  }
  // The perf guard: this workload is ~1k tuples of delta work; a second is
  // three orders of magnitude of headroom on any machine we build on.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000)
      << "delta-driven chase regressed to rescan-the-world behavior";
}

TEST(ChaseSmokeTest, EnginesAgreeOnSmallCascade) {
  CascadeInstance instance = MakeDeepCascade(12);
  Database seed = CascadeSeed(instance, 4);
  Chase chase(instance.scheme, instance.fds, instance.inds);
  Result<ChaseResult> inc = chase.Run(seed);
  Result<ChaseResult> naive = reference::NaiveChase(chase, seed);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(inc->outcome, naive->outcome);
  EXPECT_EQ(inc->fd_merges, naive->fd_merges);
  EXPECT_EQ(inc->ind_tuples, naive->ind_tuples);
  EXPECT_TRUE(inc->db == naive->db);
}

TEST(ChaseSmokeTest, GeneratedTuplesInternOnlyTheirFreshPositions) {
  // The divergent R/S cycle of the mixed solve template. A generated
  // tuple copies its constrained positions from the lhs projection, so
  // the only values it may add to the interner are the nulls at its
  // unconstrained positions. A count, not a timer: it holds under ASan.
  SchemePtr scheme =
      MakeScheme({{"R", {"A", "B", "C"}}, {"S", {"D", "E", "F"}}});
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  std::vector<Dependency> sigma = ParseDependencies(*scheme,
                                                    "R: A -> B\n"
                                                    "R[B, C] <= R[C, A]\n"
                                                    "S: D -> E\n"
                                                    "R[A, B] <= S[D, E]\n"
                                                    "S[E, F] <= R[A, C]\n")
                                      .value();
  for (const Dependency& dep : sigma) {
    if (dep.is_fd()) fds.push_back(dep.fd());
    if (dep.is_ind()) inds.push_back(dep.ind());
  }
  // Every IND here leaves one rhs position unconstrained.
  for (const Ind& ind : inds) {
    ASSERT_EQ(scheme->relation(ind.rhs_rel).arity() - ind.width(), 1u);
  }
  Database seed =
      MakeCanonicalSeed(scheme, ParseDependency(*scheme, "R: B -> C").value())
          .value();
  InternedWorkspace ws(scheme);
  ws.AppendDatabase(seed);
  std::uint64_t seed_values = ws.stats().values_interned;

  WorkspaceChase chase(&ws, fds, inds);
  ChaseOptions options;
  options.max_tuples = 4096;
  Result<WorkspaceChaseStats> run = chase.Run(options);
  ASSERT_FALSE(run.ok()) << "the cycle must exhaust its tuple budget";
  std::uint64_t generated = chase.last_run().ind_tuples;
  EXPECT_GT(generated, 4000u);
  EXPECT_EQ(ws.stats().values_interned, seed_values + generated);
  EXPECT_EQ(ws.interner().size(), seed_values + generated);
}

}  // namespace
}  // namespace ccfp
