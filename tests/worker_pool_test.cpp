// Unit tests for the shared worker pool: task coverage, reuse across jobs,
// caller participation, the single-thread inline path, and region-exit
// stress (back-to-back tiny regions, concurrent run() callers).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "core/worker_pool.hpp"

namespace herc::sched {
namespace {

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  // Distinct task indices write disjoint slots — the same contract the
  // level-parallel passes rely on.
  std::vector<int> hits(1000, 0);
  pool.run(1000, [&](int t) { hits[static_cast<std::size_t>(t)]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerPool, ReusableAcrossManyJobs) {
  WorkerPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 200; ++round)
    pool.run(17, [&](int t) { sum += t; });
  EXPECT_EQ(sum.load(), 200L * (16 * 17 / 2));
}

TEST(WorkerPool, SingleThreadRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  // Inline execution: tasks observe sequential order on the caller.
  std::vector<int> order;
  pool.run(5, [&](int t) { order.push_back(t); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, MoreTasksThanThreadsAndViceVersa) {
  WorkerPool pool(8);
  std::atomic<int> count{0};
  pool.run(3, [&](int) { count++; });  // fewer tasks than threads
  EXPECT_EQ(count.load(), 3);
  count = 0;
  pool.run(100, [&](int) { count++; });  // more tasks than threads
  EXPECT_EQ(count.load(), 100);
  pool.run(0, [&](int) { count++; });  // empty job is a no-op
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkerPool, SharedPoolIsProcessWide) {
  WorkerPool& a = WorkerPool::shared();
  WorkerPool& b = WorkerPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.threads(), 1);
  std::atomic<int> count{0};
  a.run(10, [&](int) { count++; });
  EXPECT_EQ(count.load(), 10);
}

// Runs `regions` back-to-back tiny regions (1-4 tasks) on `pool`, each with
// its own closure and hit array.  A worker that outlives its region and runs
// a later region's tasks with a stale fn, or a task run twice or never,
// shows up as a wrong-region hit or a slot count other than 1.
void run_tiny_regions(WorkerPool& pool, int regions, int salt,
                      std::atomic<int>& wrong_region) {
  for (int r = 0; r < regions; ++r) {
    const int tasks = 1 + (r + salt) % 4;
    std::array<std::atomic<int>, 4> hits{};
    std::atomic<int> current{r};
    pool.run(tasks, [&, r, tasks](int t) {
      if (current.load() != r || t < 0 || t >= tasks) {
        wrong_region++;
        return;
      }
      hits[static_cast<std::size_t>(t)]++;
    });
    current = -1;  // any late call through this closure now counts wrong
    for (int t = 0; t < 4; ++t)
      ASSERT_EQ(hits[static_cast<std::size_t>(t)].load(), t < tasks ? 1 : 0)
          << "region " << r << " task " << t << " of " << tasks;
  }
}

TEST(WorkerPool, BackToBackTinyRegionsStayInTheirRegion) {
  for (int threads : {2, 4, 8}) {
    WorkerPool pool(threads);
    std::atomic<int> wrong_region{0};
    run_tiny_regions(pool, 25000, 0, wrong_region);
    EXPECT_EQ(wrong_region.load(), 0) << "threads=" << threads;
  }
}

TEST(WorkerPool, ConcurrentCallersShareOnePool) {
  WorkerPool pool(4);
  std::atomic<int> wrong_region{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c)
    callers.emplace_back(
        [&, c] { run_tiny_regions(pool, 5000, c, wrong_region); });
  for (auto& th : callers) th.join();
  EXPECT_EQ(wrong_region.load(), 0);
}

}  // namespace
}  // namespace herc::sched
