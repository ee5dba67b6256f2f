#include "core/worker_pool.hpp"

#include <algorithm>

namespace herc::sched {

WorkerPool::WorkerPool(int threads) : threads_(std::max(1, threads)) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 0; t < threads_ - 1; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void WorkerPool::run(int tasks, const std::function<void(int)>& fn) {
  if (tasks <= 0) return;
  if (threads_ == 1 || tasks == 1) {
    for (int i = 0; i < tasks; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> serialize(run_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    tasks_ = tasks;
    done_ = 0;
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  work_cv_.notify_all();

  // The caller is a lane too: claim tasks until the counter runs dry.
  int claimed = 0;
  for (;;) {
    int i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= tasks) break;
    fn(i);
    ++claimed;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_ += claimed;
  // Closing the region (fn_ = nullptr) under the same lock hold as the
  // check means no worker can join after the last one has left, and none
  // is still claiming from next_ when the next region resets it.
  done_cv_.wait(lock, [&] { return done_ == tasks_ && active_ == 0; });
  fn_ = nullptr;
}

void WorkerPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* fn = nullptr;
    int tasks = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (fn_ == nullptr) continue;  // woke after the region closed
      fn = fn_;
      tasks = tasks_;
      ++active_;
    }
    int claimed = 0;
    for (;;) {
      int i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks) break;
      (*fn)(i);
      ++claimed;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    done_ += claimed;
    if (--active_ == 0 && done_ == tasks_) done_cv_.notify_one();
  }
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool* pool = new WorkerPool(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  return *pool;
}

}  // namespace herc::sched
