#pragma once
// Reusable worker pool for data-parallel scheduling kernels.
//
// PR 2's analyze_risk spawned a fresh std::thread per worker on every call;
// at server rates that is thousands of thread creations per second, and the
// level-parallel CPM passes need sub-millisecond fork/join, which thread
// spawn latency (tens of microseconds each) would dominate.  WorkerPool
// keeps its threads parked on a condition variable between regions.
//
// The only primitive is run(tasks, fn): execute fn(0..tasks-1), each task
// exactly once, across the pool *and the calling thread*, returning when
// all tasks finished.  Tasks are claimed from a shared atomic counter, so
// which thread runs which task is nondeterministic — determinism is the
// caller's contract: tasks must write results only at task-indexed slots
// (disjoint per task) and any reduction must happen on the caller's thread
// in task-index order after run() returns.  Every kernel in this repo
// (level-chunked CPM passes, Monte Carlo sample blocks) follows that rule,
// which is how results stay bit-identical at any thread count.
//
// Region exit: run() returns only after every worker that joined the
// region has left it, and a worker that wakes after the region closed never
// joins it — so no worker can claim a later region's indices or call a
// finished region's fn.
//
// run() is serialized internally (concurrent callers queue on a mutex) and
// must not be re-entered from inside a task.  Tasks must not throw.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace herc::sched {

class WorkerPool {
 public:
  /// Spawns `threads - 1` workers (the caller is the remaining lane).
  /// Clamped to >= 1; a 1-thread pool runs everything inline.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total parallel lanes, counting the calling thread.
  [[nodiscard]] int threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, tasks) across the workers plus the
  /// calling thread; returns once all have finished and every worker has
  /// left the region.  Safe to call from multiple threads (calls
  /// serialize); NOT re-entrant from inside a task.
  void run(int tasks, const std::function<void(int)>& fn);

  /// Process-wide pool sized to the hardware, for callers without their
  /// own: risk analysis, benches, the fuzz harness.  Constructed on first
  /// use, never destroyed (workers park when idle).
  static WorkerPool& shared();

 private:
  void worker_loop();

  const int threads_;
  std::vector<std::thread> workers_;

  std::mutex run_mutex_;  ///< serializes concurrent run() callers

  // One "region" per run() call.  Workers wake on generation_ changing,
  // join while fn_ is set (counted in active_), claim task indices from
  // next_, and count completions into done_.  The caller clears fn_ only
  // once done_ == tasks_ && active_ == 0.
  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers wait for a new generation
  std::condition_variable done_cv_;   ///< caller waits for the region to drain
  std::uint64_t generation_ = 0;
  int tasks_ = 0;
  const std::function<void(int)>* fn_ = nullptr;
  std::atomic<int> next_{0};
  int done_ = 0;
  int active_ = 0;  ///< workers currently inside the region
  bool stop_ = false;
};

}  // namespace herc::sched
