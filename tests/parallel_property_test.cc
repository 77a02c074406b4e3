// Property coverage for the task pool itself (util/task_pool.h), the
// substrate of the refutation portfolio and the solver service:
//   * TaskPool(1) spawns no threads and runs spawned tasks inline, in
//     submission order;
//   * TaskGroup::Wait helps run queued tasks, so a group makes progress
//     even when every dedicated worker is busy;
//   * the TaskGroup destructor waits for its tasks;
//   * SharedBudgetMeter exhaustion is sticky — at its step ceiling and
//     after MarkExhausted — and flows down a parent chain, never up.
// The suite carries the `property` label, so check-tsan runs it under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/budget.h"
#include "util/task_pool.h"

namespace ccfp {
namespace {

constexpr unsigned kWidths[] = {1, 2, 4, 8};

Budget Unmetered() {
  Budget budget;
  budget.deadline.reset();
  return budget;
}

TEST(TaskPoolTest, WidthOneRunsInlineInSubmissionOrder) {
  TaskPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  TaskGroup group(&pool);
  for (int i = 0; i < 16; ++i) {
    group.Spawn([&order, caller, i] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    // Inline: the task already ran when Spawn returned.
    ASSERT_EQ(order.size(), static_cast<std::size_t>(i + 1));
  }
  group.Wait();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskPoolTest, EveryTaskRunsExactlyOnceAtEveryWidth) {
  for (unsigned width : kWidths) {
    TaskPool pool(width);
    EXPECT_EQ(pool.threads(), width);
    constexpr int kTasks = 200;
    std::vector<std::atomic<int>> runs(kTasks);
    {
      TaskGroup group(&pool);
      for (int i = 0; i < kTasks; ++i) {
        group.Spawn([&runs, i] { runs[i].fetch_add(1); });
      }
      group.Wait();
    }
    for (int i = 0; i < kTasks; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "width " << width << " task " << i;
    }
  }
}

TEST(TaskPoolTest, WaitHelpsRunQueuedTasks) {
  // The pool's only worker blocks until a *later* task releases it. If
  // Wait merely slept, nobody would run that task and this would hang;
  // Wait must steal it and run it on the joining thread.
  TaskPool pool(2);
  std::atomic<bool> blocker_started{false};
  std::atomic<bool> release{false};
  std::thread::id releaser;
  std::mutex mu;
  TaskGroup group(&pool);
  group.Spawn([&] {
    blocker_started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!blocker_started.load()) std::this_thread::yield();
  group.Spawn([&] {
    std::lock_guard<std::mutex> lock(mu);
    releaser = std::this_thread::get_id();
    release.store(true);
  });
  group.Wait();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(releaser, std::this_thread::get_id());
}

TEST(TaskPoolTest, GroupDestructorWaitsForItsTasks) {
  for (unsigned width : kWidths) {
    TaskPool pool(width);
    std::atomic<int> done{0};
    {
      TaskGroup group(&pool);
      for (int i = 0; i < 4; ++i) {
        group.Spawn([&done] {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          done.fetch_add(1);
        });
      }
      // No Wait: leaving the scope must join.
    }
    EXPECT_EQ(done.load(), 4) << "width " << width;
  }
}

TEST(SharedBudgetMeterTest, ExhaustionIsStickyAtTheStepCeiling) {
  SharedBudgetMeter meter(Unmetered(), 3);
  EXPECT_TRUE(meter.Charge());
  EXPECT_TRUE(meter.Charge(2));
  EXPECT_FALSE(meter.exhausted());
  EXPECT_EQ(meter.used(), 3u);
  EXPECT_FALSE(meter.Charge());
  EXPECT_TRUE(meter.exhausted());
  // Sticky: no later charge, however small, succeeds again.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(meter.Charge());
  EXPECT_TRUE(meter.exhausted());
}

TEST(SharedBudgetMeterTest, MarkExhaustedIsSticky) {
  SharedBudgetMeter meter(Unmetered(), UINT64_MAX);
  EXPECT_TRUE(meter.Charge(10));
  meter.MarkExhausted();
  EXPECT_TRUE(meter.exhausted());
  EXPECT_FALSE(meter.Charge());
  EXPECT_TRUE(meter.exhausted());
  EXPECT_EQ(meter.used(), 10u);
}

TEST(SharedBudgetMeterTest, ConcurrentChargesCrossTheCeilingOnce) {
  // Many tasks charging one meter: the successful charges never exceed
  // the ceiling, and once it is crossed every task sees exhaustion.
  for (unsigned width : kWidths) {
    TaskPool pool(width);
    constexpr std::uint64_t kCeiling = 1000;
    SharedBudgetMeter meter(Unmetered(), kCeiling);
    std::atomic<std::uint64_t> granted{0};
    {
      TaskGroup group(&pool);
      for (int t = 0; t < 8; ++t) {
        group.Spawn([&meter, &granted] {
          while (meter.Charge()) granted.fetch_add(1);
        });
      }
    }
    EXPECT_TRUE(meter.exhausted()) << "width " << width;
    EXPECT_LE(granted.load(), kCeiling) << "width " << width;
    EXPECT_FALSE(meter.Charge());
  }
}

TEST(SharedBudgetMeterTest, ParentExhaustionReachesChildrenOnly) {
  SharedBudgetMeter parent(Unmetered(), 100);
  SharedBudgetMeter child(Unmetered(), UINT64_MAX, &parent);
  SharedBudgetMeter grandchild(Unmetered(), UINT64_MAX, &child);

  // A child's charges never reach its parent.
  EXPECT_TRUE(child.Charge(50));
  EXPECT_TRUE(grandchild.Charge(500));
  EXPECT_EQ(parent.used(), 0u);
  EXPECT_EQ(child.used(), 50u);

  // Nor does a child's exhaustion.
  SharedBudgetMeter small(Unmetered(), 1, &parent);
  EXPECT_FALSE(small.Charge(2));
  EXPECT_TRUE(small.exhausted());
  EXPECT_FALSE(parent.exhausted());
  EXPECT_FALSE(child.exhausted());

  // The parent's exhaustion is seen down the whole chain.
  parent.MarkExhausted();
  EXPECT_TRUE(child.exhausted());
  EXPECT_TRUE(grandchild.exhausted());
  EXPECT_FALSE(child.Charge());
  EXPECT_FALSE(grandchild.Charge());
}

TEST(SharedBudgetMeterTest, CancellationDrainsAFanOut) {
  // The race shape the solver uses: one never-charged cancel token, one
  // child meter per task, each task working until its meter says stop.
  // Marking the token (from outside the pool, so even a width-1 pool
  // running the tasks inline gets cancelled) stops every task.
  for (unsigned width : kWidths) {
    TaskPool pool(width);
    SharedBudgetMeter cancel(Unmetered(), UINT64_MAX);
    std::vector<std::unique_ptr<SharedBudgetMeter>> meters;
    for (int t = 0; t < 6; ++t) {
      meters.push_back(std::make_unique<SharedBudgetMeter>(
          Unmetered(), UINT64_MAX, &cancel));
    }
    std::thread canceller([&cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      cancel.MarkExhausted();
    });
    std::atomic<int> stopped{0};
    {
      TaskGroup group(&pool);
      for (int t = 0; t < 6; ++t) {
        group.Spawn([&meters, &stopped, t] {
          while (meters[t]->Charge()) std::this_thread::yield();
          stopped.fetch_add(1);
        });
      }
    }
    canceller.join();
    EXPECT_EQ(stopped.load(), 6) << "width " << width;
    EXPECT_EQ(cancel.used(), 0u);
  }
}

}  // namespace
}  // namespace ccfp
