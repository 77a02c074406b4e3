// Perf smoke test (ctest -L smoke): the id-space EMVD chase must saturate
// a dense cross-product workload in well under a second. The legacy engine
// builds and hashes a heap projection Tuple per candidate pair; the
// workspace engine reads two partition group ids and packs them into one
// word, and its partitions only *extend* across rounds — a regression back
// to per-pair projection copies fails here fast.
#include <chrono>
#include <gtest/gtest.h>

#include "chase/emvd_chase.h"
#include "constructions/sagiv_walecka.h"
#include "core/satisfies.h"
#include "reference/emvd_chase.h"

namespace ccfp {
namespace {

/// R[X, Y, Z] with X ->> Y | Z and two X-groups of `side` distinct
/// Y-values and Z-values: the fixpoint is the full side x side grid per
/// group. All pair discovery runs through the cached partitions.
Database MakeGrid(const SchemePtr& scheme, int side) {
  Database db(scheme);
  for (int g = 0; g < 2; ++g) {
    for (int i = 0; i < side; ++i) {
      db.Insert(0, {Value::Int(g), Value::Int(i), Value::Int(i)});
    }
  }
  return db;
}

std::int64_t RunGridMs(const SchemePtr& scheme,
                       const std::vector<Emvd>& sigma, int side, bool legacy,
                       std::uint64_t* added) {
  Database db = MakeGrid(scheme, side);
  EmvdChaseOptions options;
  options.max_tuples = 1 << 14;
  auto start = std::chrono::steady_clock::now();
  Result<std::uint64_t> result =
      legacy ? reference::LegacyEmvdChaseFixpoint(db, sigma, options)
             : EmvdChaseFixpoint(db, sigma, options);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(result.ok()) << result.status();
  if (result.ok()) *added = *result;
  EXPECT_TRUE(Satisfies(db, sigma[0]));
  return std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
      .count();
}

TEST(EmvdChaseSmokeTest, DenseCrossProductFinishesFast) {
  const int side = 20;
  SchemePtr scheme = MakeScheme({{"R", {"X", "Y", "Z"}}});
  std::vector<Emvd> sigma = {MakeEmvd(*scheme, "R", {"X"}, {"Y"}, {"Z"})};
  std::uint64_t ws_added = 0;
  std::int64_t ws_ms =
      RunGridMs(scheme, sigma, side, /*legacy=*/false, &ws_added);
  EXPECT_EQ(ws_added, 2u * side * side - 2u * side);
  // The absolute wall: three orders of magnitude of headroom in Release
  // (~5 ms), still comfortable under a sanitized parallel ctest run.
  EXPECT_LT(ws_ms, 1000)
      << "id-space EMVD chase regressed to per-pair projection copies";

  // The ratio guard (robust to machine load, which hits both engines
  // alike): the id-space engine is ~16x faster than the legacy engine on
  // this shape; demand a loose 2x so only a real representation
  // regression — not scheduler noise — can trip it.
  std::uint64_t legacy_added = 0;
  std::int64_t legacy_ms =
      RunGridMs(scheme, sigma, side, /*legacy=*/true, &legacy_added);
  EXPECT_EQ(legacy_added, ws_added);
  EXPECT_LT(ws_ms, std::max<std::int64_t>(legacy_ms / 2, 1))
      << "workspace engine no faster than per-pair copies: ws " << ws_ms
      << " ms vs legacy " << legacy_ms << " ms";
}

TEST(EmvdChaseSmokeTest, WorkspacePartitionsExtendInsteadOfRebuilding) {
  // Drive the chase on a caller-owned workspace and read the substrate
  // counters: across rounds the X/XY/XZ partitions must be *extended*
  // over the delta, never invalidated (the EMVD chase is append-only).
  SagivWaleckaConstruction c = MakeSagivWalecka(2);
  InternedWorkspace ws(c.scheme);
  std::size_t arity = c.scheme->relation(0).arity();
  std::uint64_t next_null = 1;
  Tuple t1(arity), t2(arity);
  for (AttrId a = 0; a < arity; ++a) {
    t1[a] = Value::Null(next_null++);
    t2[a] = (a == 0) ? t1[a] : Value::Null(next_null++);
  }
  ws.AppendTuple(0, t1);
  ws.AppendTuple(0, t2);

  EmvdChaseOptions options;
  options.max_tuples = 2048;
  options.max_rounds = 6;
  auto start = std::chrono::steady_clock::now();
  Result<std::uint64_t> added =
      EmvdChaseFixpointOnWorkspace(ws, c.sigma, options);
  auto elapsed = std::chrono::steady_clock::now() - start;

  // Fixpoint or budget are both acceptable (Sagiv–Walecka cycles can
  // blow up); what matters here is the maintenance profile and the wall.
  if (!added.ok()) {
    EXPECT_EQ(added.status().code(), StatusCode::kResourceExhausted);
  }
  const InternedWorkspace::Stats& stats = ws.stats();
  EXPECT_EQ(stats.partitions_invalidated, 0u)
      << "append-only chase must never invalidate a partition";
  EXPECT_GT(stats.partitions_extended + stats.partitions_reused, 0u)
      << "later rounds must reuse round-0 partitions";
  // Each distinct (X / XY / XZ) column set is built exactly once.
  EXPECT_LE(stats.partitions_built, 3u * c.sigma.size());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
}

}  // namespace
}  // namespace ccfp
