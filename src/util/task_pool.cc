#include "util/task_pool.h"

namespace ccfp {

namespace {

/// Which worker deque the current thread owns, per pool. A plain
/// thread_local pair suffices because a thread belongs to at most one pool
/// (workers are pool-owned; outside callers own no deque).
thread_local const TaskPool* tls_pool = nullptr;
thread_local unsigned tls_worker = 0;

}  // namespace

TaskPool::TaskPool(unsigned threads) {
  unsigned workers = threads <= 1 ? 0 : threads - 1;
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskPool::~TaskPool() {
  stop_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_cv_.notify_all();
  }
  for (std::thread& t : threads_) t.join();
}

void TaskPool::Submit(Task task) {
  if (workers_.empty()) {
    // Degenerate sequential pool: run inline on the caller.
    task();
    return;
  }
  unsigned target;
  if (tls_pool == this) {
    target = tls_worker;
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->tasks.push_front(std::move(task));
  } else {
    target = next_worker_.fetch_add(1, std::memory_order_relaxed) %
             static_cast<unsigned>(workers_.size());
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_cv_.notify_all();
  }
}

bool TaskPool::RunOne() {
  if (queued_.load(std::memory_order_acquire) == 0) return false;
  Task task;
  unsigned n = static_cast<unsigned>(workers_.size());
  unsigned start = (tls_pool == this) ? tls_worker : 0;
  for (unsigned probe = 0; probe < n && !task; ++probe) {
    unsigned w = (start + probe) % n;
    Worker& worker = *workers_[w];
    std::lock_guard<std::mutex> lock(worker.mu);
    if (worker.tasks.empty()) continue;
    if (w == start && tls_pool == this) {
      // Owner: pop the freshest (front) for cache warmth.
      task = std::move(worker.tasks.front());
      worker.tasks.pop_front();
    } else {
      // Thief: steal the coldest (back) to take a coarse chunk.
      task = std::move(worker.tasks.back());
      worker.tasks.pop_back();
    }
  }
  if (!task) return false;
  queued_.fetch_sub(1, std::memory_order_relaxed);
  task();
  return true;
}

void TaskPool::WorkerLoop(unsigned self) {
  tls_pool = this;
  tls_worker = self;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (RunOne()) continue;
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
  }
  tls_pool = nullptr;
}

void TaskGroup::Spawn(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  pool_->Submit([this, fn = std::move(fn)] {
    fn();
    // The joiner may observe pending_ == 0 and destroy the (usually
    // stack-allocated) group the instant the decrement below lands, so
    // everything needed afterwards must be read BEFORE it. The pool
    // itself outlives the task: ~TaskPool joins this worker, and a
    // caller helping in Wait holds the pool alive by construction.
    TaskPool* pool = pool_;
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task out: wake the joiner (it may be asleep in Wait).
      std::lock_guard<std::mutex> lock(pool->wake_mu_);
      pool->wake_cv_.notify_all();
    }
  });
}

void TaskGroup::Wait() {
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (pool_->RunOne()) continue;
    // Nothing stealable: our remaining tasks are mid-flight on workers.
    std::unique_lock<std::mutex> lock(pool_->wake_mu_);
    pool_->wake_cv_.wait_for(lock, std::chrono::milliseconds(1), [this] {
      return pending_.load(std::memory_order_acquire) == 0 ||
             pool_->queued_.load(std::memory_order_acquire) > 0;
    });
  }
}

}  // namespace ccfp
