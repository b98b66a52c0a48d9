// Fixed-size worker pool with fork-join task groups.
//
// The engines submit one task batch per engine phase (match, fire) and
// wait until every worker has left the batch — CP.4 "think in tasks";
// the batch lives on the submitter's stack, so no worker may still be
// touching it when run_batch() returns. Workers are
// created once per pool lifetime (CP.41) and joined by RAII (CP.25).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace parulel {

/// Snapshot of a pool's cumulative utilization counters (obs layer).
/// busy_ns sums job execution time across workers; utilization over a
/// wall-clock interval is busy_ns / (wall_ns * thread_count).
struct PoolStatsSnapshot {
  std::uint64_t batches = 0;  ///< fork-join batches submitted
  std::uint64_t jobs = 0;     ///< jobs (chunks) executed, all workers
  std::uint64_t busy_ns = 0;  ///< summed per-job execution time
  std::vector<std::uint64_t> per_worker_jobs;
  std::vector<std::uint64_t> per_worker_busy_ns;
};

/// A simple shared-queue thread pool.
///
/// Work items are std::function<void()>; per-phase batches are expressed
/// through `parallel_for`, which blocks the caller until the whole range
/// is processed. With `threads == 1` the pool degenerates to inline
/// execution on the calling thread (no workers are started), which keeps
/// single-thread baselines free of synchronization noise.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return threads_; }

  /// Run fn(begin..end) split into chunks across the pool; the calling
  /// thread participates. Returns when every index has been processed.
  /// fn receives (index, worker_id) with worker_id in [0, thread_count()).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, unsigned)>& fn);

  /// Run `jobs` closures across the pool (worker_id passed to each);
  /// blocks until all complete. Exceptions thrown by jobs propagate to
  /// the caller (the first one wins; the batch still drains).
  void run_batch(const std::vector<std::function<void(unsigned)>>& jobs);

  /// Hardware concurrency clamped to [1, 64].
  static unsigned default_threads();

  /// Cumulative utilization counters since construction. Cheap enough to
  /// keep always-on: one steady_clock read pair per job (chunk), never
  /// per index.
  PoolStatsSnapshot stats() const;

 private:
  struct Batch;
  void worker_loop(unsigned worker_id);

  /// Per-worker counters, cacheline-separated to avoid false sharing.
  struct alignas(64) WorkerStat {
    std::atomic<std::uint64_t> jobs{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  unsigned threads_;
  std::unique_ptr<WorkerStat[]> worker_stats_;
  std::atomic<std::uint64_t> batches_{0};
  std::vector<std::jthread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_left_;  ///< inside_ dropped to 0
  bool shutting_down_ = false;

  // The currently executing batch, if any. Only one batch runs at a time
  // (engine phases are sequential); workers pull chunk indices from it.
  // All three fields are guarded by mutex_.
  Batch* current_ = nullptr;
  std::uint64_t generation_ = 0;  ///< bumped per submitted batch
  unsigned inside_ = 0;           ///< workers currently inside current_
};

}  // namespace parulel
