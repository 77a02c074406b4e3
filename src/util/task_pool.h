#ifndef CCFP_UTIL_TASK_POOL_H_
#define CCFP_UTIL_TASK_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "util/budget.h"

namespace ccfp {

/// A small work-stealing thread pool. Its consumers are the refutation
/// portfolio (search/portfolio.h: one task per bounded-search ladder rung,
/// plus the chase in the solver's raced mixed route) and the solver
/// service (service/service.h: one pool shared by every session).
///
/// Ownership model: the pool owns its worker threads; it never owns the
/// data a task touches. Callers fork work with a `TaskGroup` and join
/// before the borrowed data goes out of scope — no task outlives the call
/// that spawned it.
///
/// A pool constructed with `threads` provides `threads` executors total:
/// `threads - 1` dedicated workers plus the caller itself, which helps run
/// queued tasks while it waits. `TaskPool(1)` therefore spawns no threads
/// at all and runs every spawned task inline on the caller, in submission
/// order — exact sequential execution.
///
/// Scheduling: each worker keeps a deque; owners push and pop at the
/// front (LIFO, cache-warm), thieves steal from the back (FIFO, coarse).
/// Determinism is never provided by the scheduler — consumers that feed a
/// verdict must reduce results in task-index order on the joining thread
/// (see docs/parallelism.md for the contract).
class TaskPool {
 public:
  using Task = std::function<void()>;

  /// `threads` executors total (clamped to >= 1); spawns `threads - 1`
  /// worker threads.
  explicit TaskPool(unsigned threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Total executors (dedicated workers + the joining caller).
  unsigned threads() const { return static_cast<unsigned>(workers_.size()) + 1; }

 private:
  friend class TaskGroup;

  struct Worker {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  /// Enqueues one task (front of the submitting worker's own deque, or
  /// round-robin onto some worker's back from an outside thread).
  void Submit(Task task);
  /// Dequeues and runs one task if any is available. Callable from any
  /// thread (the Wait help loop uses it). Returns false when idle.
  bool RunOne();
  void WorkerLoop(unsigned self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex wake_mu_;
  /// Signalled on submit (work available) and on group-task completion
  /// (waiters re-check their pending counts).
  std::condition_variable wake_cv_;
  std::atomic<std::uint64_t> queued_{0};
  std::atomic<bool> stop_{false};
  std::atomic<unsigned> next_worker_{0};
};

/// Fork-join scope: `Spawn` hands closures to the pool, `Wait` blocks (and
/// helps execute) until every spawned closure has finished. Destruction
/// waits, so borrowed references in tasks cannot dangle.
class TaskGroup {
 public:
  explicit TaskGroup(TaskPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Spawn(std::function<void()> fn);
  void Wait();

 private:
  TaskPool* pool_;
  std::atomic<std::uint64_t> pending_{0};
};

/// Thread-safe budget meter shared by every task of one fan-out. Work is
/// charged through relaxed atomic counters against ceilings checkpointed
/// once at construction; the first worker to cross any ceiling (or to call
/// MarkExhausted) flips one sticky flag that all siblings poll at their
/// next charge, so the pool drains and the caller surfaces exactly one
/// ResourceExhausted — never a wrong verdict, because consumers only
/// publish results from tasks that ran to completion.
///
/// The deadline is sampled every kDeadlineStride charges (a clock read per
/// charge would dominate the fine-grained counters).
///
/// Meters can be *chained*: a meter constructed with a parent reports
/// exhausted once either it or any ancestor is, so one outer cancellation
/// (a race's first decisive verdict) drains a whole family of per-probe
/// meters without the canceller having to know them — the refutation
/// portfolio hangs one child meter per ladder rung off the race's cancel
/// token this way. Charges never propagate upward; the chain carries the
/// sticky flag only.
class SharedBudgetMeter {
 public:
  /// `step_ceiling` is whichever Budget axis the consumer meters through
  /// the shared counter (a service session's lifetime steps; UINT64_MAX
  /// for a pure cancellation token); the deadline always comes from
  /// `budget`. `parent` (not
  /// owned; may be null) chains this meter under an outer one: parent
  /// exhaustion is exhaustion here too.
  SharedBudgetMeter(const Budget& budget, std::uint64_t step_ceiling,
                    const SharedBudgetMeter* parent = nullptr)
      : deadline_(budget.deadline),
        step_ceiling_(step_ceiling),
        parent_(parent) {}

  /// Charges `n` units. Returns false once exhausted (by any worker, or
  /// anywhere up the parent chain).
  bool Charge(std::uint64_t n = 1) {
    if (exhausted()) return false;
    std::uint64_t used = steps_.fetch_add(n, std::memory_order_relaxed) + n;
    if (used > step_ceiling_) {
      exhausted_.store(true, std::memory_order_relaxed);
      return false;
    }
    if (deadline_ && (used / kDeadlineStride) != ((used - n) / kDeadlineStride) &&
        std::chrono::steady_clock::now() >= *deadline_) {
      exhausted_.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  void MarkExhausted() { exhausted_.store(true, std::memory_order_relaxed); }
  bool exhausted() const {
    return exhausted_.load(std::memory_order_relaxed) ||
           (parent_ != nullptr && parent_->exhausted());
  }
  std::uint64_t used() const { return steps_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::uint64_t kDeadlineStride = 64;

  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::uint64_t step_ceiling_;
  const SharedBudgetMeter* parent_ = nullptr;
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<bool> exhausted_{false};
};

}  // namespace ccfp

#endif  // CCFP_UTIL_TASK_POOL_H_
