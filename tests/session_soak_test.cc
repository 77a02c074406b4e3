// Soak coverage (`ctest -L soak`) for memory-bounded long-lived sessions:
// an ArmstrongSession driven through many Extends under a fixed byte
// ceiling must keep its live logical footprint under that ceiling, keep
// its change feeds trimmed to nothing between rounds (the caught-up
// consumers un-pin the whole retained window), keep answering exactly
// like a fresh full-sweep re-check, and survive a snapshot/restore
// warm-start cycle mid-session with identical answers afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "armstrong/builder.h"
#include "axiom/oracle.h"
#include "axiom/sentence.h"
#include "core/satisfies.h"
#include "core/snapshot.h"
#include "core/workspace.h"

namespace ccfp {
namespace {

/// The invariants every soak round re-asserts: ceiling held, feeds
/// trimmed, database verified-exact by the independent sweep engine.
void ExpectSessionHealthy(const ArmstrongSession& session,
                          std::uint64_t byte_ceiling) {
  const InternedWorkspace& ws = session.workspace();
  EXPECT_LE(ws.MemoryUsage().Total(), byte_ceiling)
      << ws.MemoryUsage().ToString();
  for (RelId rel = 0; rel < session.scheme().size(); ++rel) {
    EXPECT_EQ(ws.FeedBase(rel), ws.EventCount(rel))
        << "retained feed window not trimmed for relation " << rel;
  }
  EXPECT_FALSE(ObeysExactly(session.Snapshot(), session.universe(),
                            session.expected())
                   .has_value())
      << "session database disagrees with the fresh sweep re-check";
}

TEST(SessionSoakTest, LongFdSessionHoldsByteCeilingWithTrimmedFeeds) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Fd> fds = {MakeFd(*scheme, "R", {"A"}, {"B"})};
  UniverseOptions uopts;
  uopts.max_fd_lhs = 2;
  uopts.include_inds = false;
  std::vector<Dependency> universe = EnumerateUniverse(*scheme, uopts);
  ASSERT_GT(universe.size(), 10u);
  FdOracle oracle(scheme);

  constexpr std::uint64_t kCeiling = 1u << 20;
  ArmstrongBuildOptions opts;
  opts.chase.max_bytes = kCeiling;
  ArmstrongSession session(scheme, fds, {}, &oracle, opts);

  // Three full passes, one sentence per Extend: the first pass grows the
  // universe member by member, the later passes re-verify known members —
  // the long-lived interactive shape that used to accrete feed forever.
  for (int pass = 0; pass < 3; ++pass) {
    for (const Dependency& dep : universe) {
      ASSERT_TRUE(session.Extend({dep}).ok()) << dep.ToString(*scheme);
      ExpectSessionHealthy(session, kCeiling);
    }
  }
  EXPECT_EQ(session.universe().size(), universe.size());
  EXPECT_GT(session.workspace_stats().feed_compactions, 0u);
  // The soak's point: hundreds of rounds, zero retained feed events.
  for (RelId rel = 0; rel < scheme->size(); ++rel) {
    EXPECT_EQ(session.workspace().events(rel).size(), 0u);
  }
}

TEST(SessionSoakTest, MixedFdIndSessionStaysBoundedAcrossExtends) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  std::vector<Fd> fds = {MakeFd(*scheme, "S", {"C"}, {"D"})};
  std::vector<Ind> inds = {MakeInd(*scheme, "R", {"A"}, "S", {"C"})};
  UniverseOptions uopts;
  uopts.max_fd_lhs = 1;
  uopts.max_ind_width = 1;
  std::vector<Dependency> universe = EnumerateUniverse(*scheme, uopts);
  ASSERT_GT(universe.size(), 6u);
  ChaseOracle oracle(scheme);

  constexpr std::uint64_t kCeiling = 1u << 21;
  ArmstrongBuildOptions opts;
  opts.chase.max_bytes = kCeiling;
  ArmstrongSession session(scheme, fds, inds, &oracle, opts);

  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t at = 0; at < universe.size(); at += 3) {
      std::vector<Dependency> delta(
          universe.begin() + at,
          universe.begin() + std::min(at + 3, universe.size()));
      ASSERT_TRUE(session.Extend(delta).ok());
      ExpectSessionHealthy(session, kCeiling);
    }
  }
  EXPECT_GT(session.workspace_stats().feed_compactions, 0u);
}

TEST(SessionSoakTest, SnapshotCycleWarmStartsAnEquivalentSession) {
  // Mid-session persistence: checkpoint the session into a chain, load
  // the chain, decode its classification record, and adopt both via the
  // warm-start constructor — from there the restored session must
  // certify the same consequence sets as the uninterrupted one.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}});
  std::vector<Fd> fds = {MakeFd(*scheme, "R", {"A"}, {"B"}),
                         MakeFd(*scheme, "R", {"B"}, {"C"})};
  UniverseOptions uopts;
  uopts.max_fd_lhs = 2;
  uopts.include_inds = false;
  std::vector<Dependency> universe = EnumerateUniverse(*scheme, uopts);
  ASSERT_GT(universe.size(), 8u);
  FdOracle oracle(scheme);

  ArmstrongSession session(scheme, fds, {}, &oracle);

  std::vector<Dependency> first_half(universe.begin(),
                                     universe.begin() + universe.size() / 2);
  std::vector<Dependency> second_half(
      universe.begin() + universe.size() / 2, universe.end());
  ASSERT_TRUE(session.Extend(first_half).ok());

  std::string prefix = ::testing::TempDir() + "/ccfp_session_soak_chain";
  SnapshotChainWriter chain(prefix);
  ASSERT_TRUE(session.Checkpoint(chain).ok());
  Result<RestoredChain> restored = LoadSnapshotChain(scheme, prefix);
  ASSERT_TRUE(restored.ok()) << restored.status();
  Result<SessionClassificationRecord> record =
      DeserializeSessionRecord(*scheme, restored->restored.aux);
  ASSERT_TRUE(record.ok()) << record.status();

  std::uint64_t interned_at_restore =
      restored->restored.ws.stats().values_interned;
  ArmstrongSession warm(std::move(restored->restored.ws), record.MoveValue(),
                        fds, {}, &oracle);
  EXPECT_EQ(warm.universe(), session.universe());
  EXPECT_EQ(warm.expected(), session.expected());

  // Both sessions continue; the warm one must stay indistinguishable.
  ASSERT_TRUE(session.Extend(second_half).ok());
  ASSERT_TRUE(warm.Extend(second_half).ok());
  EXPECT_EQ(warm.universe().size(), session.universe().size());
  EXPECT_EQ(warm.expected(), session.expected());
  EXPECT_FALSE(
      ObeysExactly(warm.Snapshot(), warm.universe(), warm.expected())
          .has_value());
  // Warm start means adopted capital: the restored values were reused,
  // not re-interned (only genuinely new seed values intern afterwards).
  EXPECT_GE(warm.workspace_stats().values_interned, interned_at_restore);
  EXPECT_GT(interned_at_restore, 0u);
}

}  // namespace
}  // namespace ccfp
