// Perf smoke test (ctest -L smoke): the delta-driven chase engine must
// chew through a deep IND cascade in well under a second. The naive
// engine's restart loop is O(depth^2) on this shape; the incremental
// engine is O(total tuples), so a regression back to rescan-the-world
// behavior fails here fast instead of surfacing as a slow bench.
#include <chrono>
#include <gtest/gtest.h>

#include "bench/workloads.h"
#include "chase/chase.h"
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

}  // namespace
}  // namespace ccfp
