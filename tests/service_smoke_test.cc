// Perf smoke guard (ctest -L smoke) for mining-session eviction, in bytes
// rather than time so it cannot flake: a session forked from a core over
// ~1,300 warm rows that appends 13 tuples must spill a chain sized by its
// own overlay — well under a tenth of the full record of the same fork.
// A regression back to spilling the whole fork (the core's warm base
// included) fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "core/database.h"
#include "core/snapshot.h"
#include "mine/discovery.h"
#include "service/service.h"
#include "service/shared_core.h"

namespace ccfp {
namespace {

TEST(ServiceSmokeTest, MiningSpillIsSizedByTheOverlayNotTheCore) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B"}}, {"S", {"C", "D"}}});
  Database warm(scheme);
  for (std::int64_t i = 0; i < 1000; ++i) {
    warm.Insert(0, {Value::Int(i), Value::Int(i % 37)});
  }
  for (std::int64_t i = 0; i < 300; ++i) {
    warm.Insert(1, {Value::Int(i % 41), Value::Int(i)});
  }
  Database delta(scheme);
  for (std::int64_t i = 0; i < 13; ++i) {
    delta.Insert(i % 2, {Value::Int(5000 + i), Value::Int(i)});
  }

  std::string dir = ::testing::TempDir() + "/ccfp_service_smoke";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SolverService::Options options;
  options.spill_dir = dir;
  SolverService service(options);
  Result<SolverService::SessionId> id = service.OpenMine(scheme, warm);
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(service.Append(*id, delta).ok());
  ASSERT_TRUE(service.Evict(*id).ok());

  std::string stem = "session_" + std::to_string(*id) + ".";
  std::uintmax_t chain_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind(stem, 0) == 0 && name != stem + "lock") {
      chain_bytes += entry.file_size();
    }
  }

  Result<std::shared_ptr<const SolverCore>> core =
      SolverCore::Build(scheme, {}, &warm);
  ASSERT_TRUE(core.ok()) << core.status();
  InternedWorkspace fork = (*core)->ForkWorkspace();
  fork.AppendDatabase(delta);
  std::size_t full_bytes = SerializeWorkspace(fork).size();

  EXPECT_GT(chain_bytes, 0u);
  EXPECT_LT(chain_bytes * 10, full_bytes)
      << "mining spill chain " << chain_bytes << " B vs full record "
      << full_bytes << " B";

  // And the small chain is the whole session: revival mines the same.
  Database all = warm;
  for (RelId rel = 0; rel < scheme->size(); ++rel) {
    for (const Tuple& t : delta.relation(rel).tuples()) all.Insert(rel, t);
  }
  Result<std::vector<Ind>> inds = service.MineSessionInds(*id);
  ASSERT_TRUE(inds.ok()) << inds.status();
  EXPECT_EQ(*inds, MineInds(all));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ccfp
