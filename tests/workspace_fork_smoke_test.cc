// Perf smoke guard (ctest -L smoke) for the cost of forking a shared core,
// in heap allocations rather than time so it cannot flake: every mining
// session open and revival forks the core's sealed base, and every evict
// and close frees the fork. With the tuples, occurrence lists and
// partition keys in flat arrays, a fork plus its teardown allocates once
// per container — O(relations + cached partitions) — no matter how many
// warm rows the base holds. A regression back to a per-row or per-key
// node (a vector per tuple, a map node per partition key) fails here.
//
// This binary replaces the global operator new to count allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench/workloads.h"
#include "core/database.h"
#include "core/parser.h"
#include "service/shared_core.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ccfp {
namespace {

/// Heap allocations made by forking `core` and destroying the fork.
std::uint64_t ForkAndDropAllocations(const SolverCore& core) {
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  {
    InternedWorkspace fork = core.ForkWorkspace();
    EXPECT_EQ(fork.TotalAliveTuples(), core.base().TotalAliveTuples());
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(WorkspaceForkSmokeTest, ForkAllocationsDoNotGrowWithTheWarmBase) {
  SchemePtr scheme = ChurnScheme();
  Database warm1 = ChurnWarmData(scheme, 1);
  Database warm2 = ChurnWarmData(scheme, 2);
  Result<std::shared_ptr<const SolverCore>> core1 =
      SolverCore::Build(scheme, {}, &warm1);
  Result<std::shared_ptr<const SolverCore>> core2 =
      SolverCore::Build(scheme, {}, &warm2);
  ASSERT_TRUE(core1.ok()) << core1.status();
  ASSERT_TRUE(core2.ok()) << core2.status();
  std::uint64_t partitions = (*core1)->base_stats().partitions_built;
  ASSERT_EQ((*core2)->base_stats().partitions_built, partitions)
      << "both scales must premine the same partitions";
  ASSERT_GT(partitions, 0u);
  ASSERT_EQ((*core2)->base().AliveTuples(0),
            2 * (*core1)->base().AliveTuples(0));

  std::uint64_t allocs1 = ForkAndDropAllocations(**core1);
  std::uint64_t allocs2 = ForkAndDropAllocations(**core2);
  EXPECT_EQ(allocs1, allocs2)
      << "fork allocations grew with the warm base: " << allocs1 << " at 1x, "
      << allocs2 << " at 2x";
  // A few containers per relation and per cached partition.
  std::uint64_t bound = 8 * (scheme->size() + partitions) + 16;
  EXPECT_LE(allocs1, bound) << allocs1 << " allocations for "
                            << (*core1)->base().TotalAliveTuples()
                            << " warm rows and " << partitions
                            << " partitions";
}

TEST(WorkspaceForkSmokeTest, SmallAppendsGrowTheRowArenaGeometrically) {
  // A mining session appends 13-row deltas to its fork. Each append must
  // not reallocate the relation's row arena to exactly its new size: 40
  // appends then move R's arena once or twice, and past the first append
  // allocate less than once per append (every container grows
  // geometrically).
  SchemePtr scheme = ChurnScheme();
  Database warm = ChurnWarmData(scheme, 1);
  Result<std::shared_ptr<const SolverCore>> core =
      SolverCore::Build(scheme, {}, &warm);
  ASSERT_TRUE(core.ok()) << core.status();
  constexpr int kAppends = 40;
  std::vector<Database> deltas;
  for (const std::string& text : ChurnDeltaTexts(kAppends)) {
    Result<Database> delta = ParseDatabase(scheme, text);
    ASSERT_TRUE(delta.ok()) << delta.status();
    deltas.push_back(std::move(*delta));
  }

  InternedWorkspace fork = (*core)->ForkWorkspace();
  const ValueId* arena = fork.tuple(0, 0).data();
  int arena_moves = 0;
  std::uint64_t allocs = 0;
  for (int d = 0; d < kAppends; ++d) {
    std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    fork.AppendDatabase(deltas[d]);
    // The first append regrows the fork's exact-size copies; count the
    // rest.
    if (d > 0) allocs += g_allocations.load(std::memory_order_relaxed) - before;
    if (fork.tuple(0, 0).data() != arena) {
      ++arena_moves;
      arena = fork.tuple(0, 0).data();
    }
  }
  ASSERT_EQ(fork.AliveTuples(0), warm.relation(0).size() + 12 * kAppends);
  EXPECT_LE(arena_moves, 2) << "R's arena moved on " << arena_moves
                            << " of " << kAppends << " appends";
  EXPECT_LT(allocs, static_cast<std::uint64_t>(kAppends - 1))
      << allocs << " allocations for appends 2.." << kAppends;
}

}  // namespace
}  // namespace ccfp
