// Perf smoke test (ctest -L smoke): the workspace-backed Armstrong builder
// must finish its build -> chase -> verify -> repair loop in well under a
// second on a mixed FD+IND chain, and the substrate counters must show the
// rounds reusing one workspace (appends + partition extensions) instead of
// re-interning the database per round.
#include <chrono>
#include <gtest/gtest.h>

#include "armstrong/builder.h"
#include "axiom/sentence.h"
#include "chase/workspace_chase.h"
#include "core/satisfies.h"
#include "reference/armstrong.h"
#include "util/strings.h"

namespace ccfp {
namespace {

/// The bench_armstrong mixed workload: a chain of INDs plus one FD per
/// relation (acyclic, so the chase terminates).
struct MixedInstance {
  SchemePtr scheme;
  std::vector<Fd> fds;
  std::vector<Ind> inds;
  std::vector<Dependency> universe;
};

MixedInstance MakeMixedInstance(std::size_t relations) {
  MixedInstance instance;
  std::vector<std::pair<std::string, std::vector<std::string>>> rels;
  for (std::size_t r = 0; r < relations; ++r) {
    rels.emplace_back(StrCat("R", r), std::vector<std::string>{"A", "B"});
  }
  instance.scheme = MakeScheme(rels);
  UniverseOptions options;
  options.max_fd_lhs = 1;
  options.max_ind_width = 1;
  options.include_rds = true;
  instance.universe = EnumerateUniverse(*instance.scheme, options);
  for (std::size_t r = 0; r < relations; ++r) {
    instance.fds.push_back(Fd{static_cast<RelId>(r), {0}, {1}});
    if (r + 1 < relations) {
      instance.inds.push_back(
          Ind{static_cast<RelId>(r), {1}, static_cast<RelId>(r + 1), {0}});
    }
  }
  return instance;
}

TEST(ArmstrongSmokeTest, WorkspaceBuildFinishesFast) {
  MixedInstance instance = MakeMixedInstance(6);
  ChaseOracle oracle(instance.scheme);

  auto start = std::chrono::steady_clock::now();
  Result<ArmstrongReport> report = BuildArmstrongDatabase(
      instance.scheme, instance.fds, instance.inds, instance.universe,
      oracle);
  auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(ObeysExactly(report->db, instance.universe, report->expected)
                   .has_value());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000)
      << "workspace Armstrong build regressed";
}

TEST(ArmstrongSmokeTest, RepairRoundsReuseOneWorkspace) {
  MixedInstance instance = MakeMixedInstance(5);
  ChaseOracle oracle(instance.scheme);
  Result<ArmstrongReport> report = BuildArmstrongDatabase(
      instance.scheme, instance.fds, instance.inds, instance.universe,
      oracle);
  ASSERT_TRUE(report.ok()) << report.status();

  const InternedWorkspace::Stats& stats = report->workspace_stats;
  // Every value the build ever interned is a fresh labeled null born in
  // id-space — seeds and repair seeds alike. If a round re-interned the
  // database, this count would jump by a database's worth of values per
  // round instead of staying equal to the distinct nulls created.
  EXPECT_GT(stats.values_interned, 0u);
  EXPECT_LE(stats.values_interned,
            stats.tuples_appended * 2u /* arity */ + stats.value_merges);
  if (report->repair_rounds > 0) {
    // Later rounds verified on partitions carried over from earlier ones:
    // extensions/reuses, with rebuilds only for relations a merge touched.
    EXPECT_GT(stats.partitions_extended + stats.partitions_reused, 0u)
        << "repair rounds rebuilt every partition from scratch";
  }
}

TEST(ArmstrongSmokeTest, ResumedChaseProcessesOnlyTheRepairDelta) {
  // The builder's repair loop in miniature, driven directly so the
  // delta-only property is observable even on instances whose exact
  // oracles never trigger a repair: chase a full seed to fixpoint, append
  // one repair-style seed pair, and resume. The second Run must re-chase
  // only the delta — a handful of steps against the first run's hundreds —
  // and the workspace must extend its verification partitions rather than
  // rebuild them.
  MixedInstance instance = MakeMixedInstance(6);
  InternedWorkspace ws(instance.scheme);
  for (RelId rel = 0; rel < instance.scheme->size(); ++rel) {
    for (int copy = 0; copy < 8; ++copy) {
      IdTuple t = {ws.InternFreshNull(), ws.InternFreshNull()};
      ws.Append(rel, std::move(t));
    }
  }
  WorkspaceChase chaser(&ws, instance.fds, instance.inds);
  Result<WorkspaceChaseStats> first = chaser.Run({});
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->outcome, ChaseOutcome::kFixpoint);
  ASSERT_GT(first->steps, 50u);

  // Verify once so every (relation, column-set) partition exists.
  for (const Fd& fd : instance.fds) EXPECT_TRUE(ws.Satisfies(fd));
  for (const Ind& ind : instance.inds) EXPECT_TRUE(ws.Satisfies(ind));
  std::uint64_t interned_before = ws.stats().values_interned;
  std::uint64_t built_before = ws.stats().partitions_built;

  // One repair-style seed pair into the first relation; resume.
  IdTuple t1 = {ws.InternFreshNull(), ws.InternFreshNull()};
  IdTuple t2 = {t1[0], ws.InternFreshNull()};
  ws.Append(0, std::move(t1));
  ws.Append(0, std::move(t2));
  Result<WorkspaceChaseStats> second = chaser.Run({});
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->outcome, ChaseOutcome::kFixpoint);
  EXPECT_LT(second->steps, first->steps / 2)
      << "resumed chase re-processed the whole database, not the delta";

  // Re-verify: still a model, nothing re-interned beyond the delta's own
  // values, and no partition column-set compiled twice from scratch for
  // relations the resumed chase never touched.
  for (const Fd& fd : instance.fds) EXPECT_TRUE(ws.Satisfies(fd));
  for (const Ind& ind : instance.inds) EXPECT_TRUE(ws.Satisfies(ind));
  std::uint64_t delta_interned =
      ws.stats().values_interned - interned_before;
  EXPECT_LE(delta_interned, 3u + 2u * second->ind_tuples);
  EXPECT_LT(ws.stats().partitions_built - built_before, built_before)
      << "re-verification rebuilt partitions for untouched relations";
}

TEST(ArmstrongSmokeTest, EnginesAgreeOnExactness) {
  // Differential: both engines must produce *verified-exact* databases
  // certifying the same consequence set (their tuples may differ — the
  // workspace engine keeps chase consequences across rounds).
  MixedInstance instance = MakeMixedInstance(4);
  ChaseOracle oracle(instance.scheme);
  Result<ArmstrongReport> ws = BuildArmstrongDatabase(
      instance.scheme, instance.fds, instance.inds, instance.universe,
      oracle);
  Result<ArmstrongReport> legacy = reference::BuildArmstrongDatabaseLegacy(
      instance.scheme, instance.fds, instance.inds, instance.universe,
      oracle);
  ASSERT_TRUE(ws.ok()) << ws.status();
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  EXPECT_EQ(ws->expected, legacy->expected);
  for (const Dependency& tau : instance.universe) {
    EXPECT_EQ(Satisfies(ws->db, tau), Satisfies(legacy->db, tau))
        << tau.ToString(*instance.scheme);
  }
}

}  // namespace
}  // namespace ccfp
