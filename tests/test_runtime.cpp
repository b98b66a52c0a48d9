// Unit tests: thread pool and parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace parulel {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> out(100, 0);
  pool.parallel_for(0, 100, [&](std::size_t i, unsigned worker) {
    EXPECT_EQ(worker, 0u);
    out[i] = static_cast<int>(i);
  });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i, unsigned) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t, unsigned) { calls++; });
  pool.parallel_for(7, 3, [&](std::size_t, unsigned) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, WorkerIdsAreInRange) {
  ThreadPool pool(3);
  std::atomic<bool> bad{false};
  pool.parallel_for(0, 5000, [&](std::size_t, unsigned worker) {
    if (worker >= 3) bad = true;
  });
  EXPECT_FALSE(bad.load());
}

TEST(ThreadPool, RunBatchExecutesEveryJob) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::function<void(unsigned)>> jobs;
  for (int i = 1; i <= 64; ++i) {
    jobs.push_back([&sum, i](unsigned) { sum += i; });
  }
  pool.run_batch(jobs);
  EXPECT_EQ(sum.load(), 64 * 65 / 2);
}

TEST(ThreadPool, RunBatchEmptyIsNoop) {
  ThreadPool pool(2);
  pool.run_batch({});  // must not hang
}

TEST(ThreadPool, SequentialBatchesReuseWorkers) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 100, [&](std::size_t, unsigned) { total++; });
  }
  EXPECT_EQ(total.load(), 5000);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  std::vector<std::function<void(unsigned)>> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.push_back([i](unsigned) {
      if (i == 7) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(pool.run_batch(jobs), std::runtime_error);
  // Pool must remain usable after an exception.
  std::atomic<int> ok{0};
  pool.parallel_for(0, 10, [&](std::size_t, unsigned) { ok++; });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, LargeFanOutCompletes) {
  ThreadPool pool(ThreadPool::default_threads());
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(0, 200000,
                    [&](std::size_t i, unsigned) { sum += i; });
  EXPECT_EQ(sum.load(), 200000ull * 199999ull / 2);
}

// Batch-lifetime regression: each batch lives on its submitter's stack,
// so a worker still inside (or just entering) a finished batch must be
// waited for before run_batch returns. Many tiny back-to-back batches on
// more workers than cores leave a late worker racing the next batch's
// construction at the same stack address; before the fix this crashed
// or hung within a few thousand rounds.
TEST(ThreadPool, BackToBackTinyBatchesOversubscribed) {
  const unsigned threads = 4 * ThreadPool::default_threads();
  ThreadPool pool(threads);
  std::uint64_t expected = 0;
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 20000; ++round) {
    std::vector<std::function<void(unsigned)>> jobs;
    const int n = 2 + round % 3;
    for (int i = 0; i < n; ++i) {
      jobs.push_back([&sum, round, i](unsigned) {
        sum.fetch_add(static_cast<std::uint64_t>(round + i),
                      std::memory_order_relaxed);
      });
      expected += static_cast<std::uint64_t>(round + i);
    }
    pool.run_batch(jobs);
    ASSERT_EQ(sum.load(), expected) << "round " << round;
  }
}

TEST(ThreadPool, DefaultThreadsPositive) {
  EXPECT_GE(ThreadPool::default_threads(), 1u);
  EXPECT_LE(ThreadPool::default_threads(), 64u);
}

}  // namespace
}  // namespace parulel
