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

#include "core/database.h"
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

/// The session_churn mining shape with `scale` times its R rows:
/// R(A, B, C, D) with A a key, A -> B and C -> D; S(E, F) with E -> F and
/// S[E] <= R[B]. The dependencies, and so the partitions the core
/// premines, do not depend on the scale.
Database ChurnWarmData(const SchemePtr& scheme, std::int64_t scale) {
  Database warm(scheme);
  std::uint64_t state = 12345;
  auto below = [&](std::uint64_t n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::int64_t>((state >> 33) % n);
  };
  for (std::int64_t i = 0; i < 1200 * scale; ++i) {
    std::int64_t c = below(50);
    warm.Insert(0, {Value::Int(i), Value::Int(i % 97), Value::Int(c),
                    Value::Int((c * 3) % 41)});
  }
  for (std::int64_t i = 0; i < 400; ++i) {
    std::int64_t e = below(97);
    warm.Insert(1, {Value::Int(e), Value::Int(e % 13)});
  }
  return warm;
}

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
  SchemePtr scheme =
      MakeScheme({{"R", {"A", "B", "C", "D"}}, {"S", {"E", "F"}}});
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

}  // namespace
}  // namespace ccfp
